package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sspp"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []specMetric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", c.kind, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the program %s %s %s",
					c.kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if c.kind == "end_to_end" && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q the program does not have", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %s", names, workloadNames())
	}
}

// TestTradeOffDirection checks the paper's trade-off on the elect-*
// configuration: mean parallel time to the safe set falls from r=8 to r=64
// at n=256.
func TestTradeOffDirection(t *testing.T) {
	meanPT := func(r int) float64 {
		var sum float64
		gen := splitmix64(7)
		const trials = 4
		for i := 0; i < trials; i++ {
			sys, err := newElect(electConfig(r, gen.next()), gen.next())
			if err != nil {
				t.Fatal(err)
			}
			res := sys.Run()
			if err := checkElect(sys, res); err != nil {
				t.Fatalf("r=%d: %v", r, err)
			}
			sum += res.ParallelTime
		}
		return sum / trials
	}
	pt8, pt64 := meanPT(8), meanPT(64)
	if !(pt64 < pt8) {
		t.Fatalf("mean parallel time %.0f at r=64 is not below %.0f at r=8", pt64, pt8)
	}
}

func TestCheckPermutation(t *testing.T) {
	for _, c := range []struct {
		ranks []int
		ok    bool
	}{{[]int{2, 3, 1}, true}, {[]int{1, 1, 3}, false}, {[]int{0, 1, 2}, false}, {[]int{1, 2, 4}, false}, {nil, false}} {
		if err := checkPermutation(c.ranks); (err == nil) != c.ok {
			t.Errorf("checkPermutation(%v) = %v", c.ranks, err)
		}
	}
}

// TestTracedElectRedrive runs traced elect-r8 trials: the re-drive must
// stop where System.Run did, and the agent group must report every one of
// its metrics.
func TestTracedElectRedrive(t *testing.T) {
	l := &ledger{origin: now(), correct: true}
	_, l.nsPerPair = calibrate(1)
	v := traceElect(l, 8, 3, 0, 3)
	if l.attempted != 3 || l.failed != 0 {
		t.Fatalf("%d of %d traced trials failed", l.failed, l.attempted)
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("%s = %v", k, x)
		}
	}
	if v["poll.polls_per_op"] < 2 {
		t.Errorf("poll.polls_per_op = %v", v["poll.polls_per_op"])
	}
}

func TestCIWCheck(t *testing.T) {
	if _, _, err := ciwOp(5); err != nil {
		t.Fatal(err)
	}
	sys, err := sspp.New(ciwConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCIW(sys, ciwHorizon*ciwN); err == nil {
		t.Fatal("a clean start passed the mean-field leader check")
	}
	if err := checkCIW(sys, 1); err == nil {
		t.Fatal("a short run passed the interaction-count check")
	}
}

// subscriberBuffer is the capacity of sppd's per-subscriber SSE channel
// (server.go): a job emitting more frames than that can lose its cell and
// done frames to a slow reader.
const subscriberBuffer = 256

// TestColdJobFrameBudget runs a reduced sppd-mix and holds every cold job
// to a quarter of the subscriber buffer, so the workload stays clear of the
// frame-dropping fault whatever the checkpoint cadence becomes.
func TestColdJobFrameBudget(t *testing.T) {
	gen := splitmix64(11)
	env, err := startSppd(filepath.Join(t.TempDir(), "store"), &gen, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	r := mix(env, &gen, 300*time.Millisecond, nil)
	if !r.correct {
		t.Fatal("run-level checks failed")
	}
	var frames []float64
	for _, c := range r.clients {
		for op, err := range c.fails {
			t.Errorf("client %d operation %d: %v", c.id, op, err)
		}
		if c.ops%roundOps != 0 {
			t.Errorf("client %d attempted %d operations, not whole rounds", c.id, c.ops)
		}
		frames = append(frames, c.frames...)
	}
	sort.Float64s(frames)
	if len(frames) == 0 {
		t.Fatal("no cold operations ran")
	}
	if worst := frames[len(frames)-1]; worst > subscriberBuffer/4 {
		t.Fatalf("a cold job emitted %v SSE frames, over the budget of %d", worst, subscriberBuffer/4)
	}
}

func TestSubGridsShareCells(t *testing.T) {
	g := sppdGrid(9)
	full, err := cellHashes(g)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for _, h := range full {
		in[h] = true
	}
	for i, sg := range subGrids(g) {
		hs, err := cellHashes(sg)
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) != 2 || !in[hs[0]] || !in[hs[1]] {
			t.Errorf("sub-grid %d cells %v are not two cells of the grid", i, hs)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("t", now(), 2)
	tr.begin("a", 0)
	tr.begin("b", 0)
	time.Sleep(time.Millisecond)
	tr.end()
	tr.begin("c", 0)
	tr.end()
	tr.end()
	if got, want := tr.self["a"], tr.total["a"]-tr.total["b"]-tr.total["c"]; got != want {
		t.Errorf("self time of a = %v, want %v", got, want)
	}
	if tr.self["b"] != tr.total["b"] || tr.total["b"] < time.Millisecond {
		t.Errorf("leaf b: self %v total %v", tr.self["b"], tr.total["b"])
	}
	if len(tr.spans) != 2 || tr.dropped != 1 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("spans %+v dropped %d", tr.spans, tr.dropped)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeTrace(path, traceFile{Workload: "w", Tracers: []tracerSpans{{Name: "x", Spans: tr.spans}}}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(b, &back); err != nil || len(back.Tracers[0].Spans) != 2 {
		t.Fatalf("trace file does not round-trip: %v", err)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25}, [3]float64{0.1875, 3.375, 6.5625}},
		{[]float64{2, 8, 4, 16, 32, 64, 1}, [3]float64{2, 8, 32}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestCompare(t *testing.T) {
	m := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	row := compare("w", m, []float64{10, 10, 10, 10}, []float64{11, 9, 12, 10})
	if row.BWins != 0.5 {
		t.Errorf("B wins = %v, want 0.5 (a tie counts for neither side)", row.BWins)
	}
	if want := -0.05; math.Abs(row.Change-want) > 1e-12 {
		t.Errorf("change = %v, want %v (higher is better, so a gain is negative)", row.Change, want)
	}
}

// TestTracedRunReportsEveryLayer runs a short traced sppd-mix: every
// per-layer metric must come out finite, singleflight must compute the
// flooded cell once, and the spans must reach the trace file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	t.Chdir(t.TempDir())
	res, err := runTraced(workloads["sppd-mix"], 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
	}
	if got := res.Metrics["serve.dedup_computed"].Value; got != 1 {
		t.Errorf("singleflight computed the flooded cell %v times", got)
	}
	if _, err := os.Stat(filepath.Join(workDir, "traces", "sppd-mix-seed1.json")); err != nil {
		t.Error(err)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{}, {"--workload", "nope"}, {"--workload", "elect-r8", "--trace", "2"}} {
		if code := runBench(args); code != 2 {
			t.Errorf("runBench(%q) = %d, want 2", args, code)
		}
	}
}
