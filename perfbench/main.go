// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload per process against the public entry points of the
// engine (sspp) and of sppd (internal/serve), checks every operation's
// output, and prints its metrics; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 the same workload runs with spans around every
// layer call and the metrics are the per-layer ledger. See README.md for the
// workloads, the metrics and the layer each one belongs to.
//
//	perfbench --workload elect-r8 --seed 1 --seconds 20 --trace 0
//	perfbench ab -a ../parent -b . -pairs 10 -seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		os.Exit(runAB(os.Args[2:]))
	}
	os.Exit(runBench(os.Args[1:]))
}

// workDir, under the working directory, holds what a run leaves behind:
// the sppd stores while they are in use, and the traced runs' spans.
const workDir = ".bench_build"

// now is the benchmark's one wall-clock read: every duration it reports is
// a difference of two now() values.
func now() time.Time {
	return time.Now() //sspp:allow rngdiscipline -- benchmark harness timing; the program under test never sees it
}

// result is the closing JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 28, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))

	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed, d)
	} else {
		var r *runStats
		if r, err = w.run(*seed, d); err == nil {
			res = r.endToEnd()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %d: %d operations attempted, %d failed\n",
		w.name, *seed, *trace, res.Attempted, res.Failed)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
