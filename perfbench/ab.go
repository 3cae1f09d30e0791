package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"sspp/internal/stats/statcheck"
)

// benchmarkSpec is the part of BENCHMARK.json the A/B mode reads.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(dir string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runOnce runs one side's benchmark command from its checkout and parses
// the closing JSON line.
func runOnce(dir string, spec *benchmarkSpec, args ...string) (result, error) {
	cmd := exec.Command(spec.Command[0], append(spec.Command[1:], args...)...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s %v in %s: %w", spec.Command[0], args, dir, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("closing line of %v in %s: %w", args, dir, err)
	}
	return r, nil
}

// quartiles are the first, second and third quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// abRow is one metric of one workload in the A/B report.
type abRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	// BWins is the share of pairs in which B was better than A; ties count
	// for neither side.
	BWins float64 `json:"b_wins"`
	// Change is B's median relative to A's, signed so positive is worse.
	Change float64 `json:"change"`
	P      float64 `json:"mann_whitney_p"`
	// Spread is A's quartile distance over its median.
	Spread float64 `json:"spread_a"`
	Bound  float64 `json:"bound,omitempty"`
}

// runAB alternates two checkouts' benchmarks in pairs (A first in even
// pairs, B first in odd ones, both on the pair's seed) and reports, per
// workload and metric, each side's median and quartiles, the share of pairs
// B won, B's change against A, A's spread, and a Mann–Whitney p.
func runAB(args []string) int {
	fs := flag.NewFlagSet("perfbench ab", flag.ContinueOnError)
	dirA := fs.String("a", "", "checkout of the baseline (A)")
	dirB := fs.String("b", ".", "checkout of the change (B)")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in A's BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "alternating pairs per workload")
	seconds := fs.Int("seconds", 28, "timed phase of each run")
	trace := fs.Int("trace", 0, "1 compares the per-layer ledgers")
	seed0 := fs.Uint64("seed", 1, "seed of the first pair; pair i uses seed+i")
	if err := fs.Parse(args); err != nil || *dirA == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench ab: need -a <checkout> and -pairs >= 1")
		return 2
	}
	specA, err := readSpec(*dirA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 1
	}
	specB, err := readSpec(*dirB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench ab:", err)
		return 1
	}
	metrics := specA.EndToEnd
	if *trace == 1 {
		metrics = specA.PerLayer
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range specA.Workloads {
			names = append(names, w.Name)
		}
	}

	var rows []abRow
	for _, w := range names {
		a, b := map[string][]float64{}, map[string][]float64{}
		var failA, failB, attA, attB int
		for i := 0; i < *pairs; i++ {
			runArgs := []string{"--workload", w, "--seed", fmt.Sprint(*seed0 + uint64(i)),
				"--seconds", fmt.Sprint(*seconds), "--trace", fmt.Sprint(*trace)}
			sides := []struct {
				dir  string
				spec *benchmarkSpec
				into map[string][]float64
				att  *int
				fail *int
			}{{*dirA, specA, a, &attA, &failA}, {*dirB, specB, b, &attB, &failB}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				r, err := runOnce(s.dir, s.spec, runArgs...)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench ab:", err)
					return 1
				}
				*s.att += r.Attempted
				*s.fail += r.Failed
				for _, m := range metrics {
					s.into[m.Name] = append(s.into[m.Name], r.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintf(os.Stderr, "ab: %s pair %d/%d done\n", w, i+1, *pairs)
		}
		fmt.Printf("%s: A failed %d of %d operations, B failed %d of %d\n", w, failA, attA, failB, attB)
		for _, m := range metrics {
			rows = append(rows, compare(w, m, a[m.Name], b[m.Name]))
		}
	}
	printAB(rows)
	line, _ := json.Marshal(rows)
	fmt.Println(string(line))
	return 0
}

// compare summarizes one metric's paired samples.
func compare(w string, m specMetric, a, b []float64) abRow {
	sign := 1.0 // +1 when higher is worse
	if m.Better == "higher" {
		sign = -1
	}
	row := abRow{Workload: w, Metric: m.Name, Unit: m.Unit, A: a, B: b, Bound: m.Bound}
	wins := 0
	for i := range a {
		if d := sign * (b[i] - a[i]); d < 0 {
			wins++
		}
	}
	row.BWins = float64(wins) / float64(len(a))
	qa1, ma, qa3 := quartiles(a)
	_, mb, _ := quartiles(b)
	row.Change = sign * (mb - ma) / math.Abs(ma)
	row.Spread = (qa3 - qa1) / math.Abs(ma)
	row.P = statcheck.MannWhitney(a, b).P
	return row
}

func printAB(rows []abRow) {
	fmt.Printf("%-12s %-28s %28s %28s %7s %8s %7s %7s %6s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "change", "spread", "bound", "p")
	for _, r := range rows {
		a1, a2, a3 := quartiles(r.A)
		b1, b2, b3 := quartiles(r.B)
		flag := ""
		if r.Bound > 0 && r.Change > r.Bound {
			flag = "  worse than bound"
		}
		fmt.Printf("%-12s %-28s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %6.0f%% %+7.1f%% %6.1f%% %6.1f%% %6.3f%s\n",
			r.Workload, r.Metric, a2, a1, a3, b2, b1, b3, 100*r.BWins, 100*r.Change, 100*r.Spread, 100*r.Bound, r.P, flag)
	}
}
