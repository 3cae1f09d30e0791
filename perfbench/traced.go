package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sspp"
	"sspp/internal/rng"
)

// The layer groups of a traced run. Every traced run measures all three, so
// it reports every per-layer metric: the named workload's own group gets
// most of the run, the other two a short probe of their home workload.
const (
	groupAgent   = "agent"   // sched, core, poll, run, system: elect-*
	groupSpecies = "species" // species: ciw-species
	groupServe   = "serve"   // ensemble, serve, net/http: sppd-mix
)

const (
	probeTime = 1500 * time.Millisecond // time given to each group a traced run is not home to
	spanCap   = 50_000                  // spans retained per tracer for the trace file
)

// ledger collects a traced run: its tracers, its operation counts and the
// in-process calibration of the rng and scheduler layers.
type ledger struct {
	origin    time.Time
	tracers   []*tracer
	attempted int
	failed    int
	correct   bool // run-level checks (those not tied to one operation) held
	nsPerPair float64
}

func (l *ledger) newTracer(name string) *tracer {
	t := newTracer(name, l.origin, spanCap)
	l.tracers = append(l.tracers, t)
	return t
}

// done counts one finished operation and whether its checks held.
func (l *ledger) done(op int, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "traced operation %d failed: %v\n", op, err)
	}
}

// sink keeps the calibration loops' results live.
var sink uint64

// calibrate times the rng draw and the uniform scheduler's Pair in tight
// loops: the calibration kernel that expresses every other figure in
// machine-independent units, and the per-pair cost the agent group subtracts
// from its stepping time. Each is the median of nine blocks.
func calibrate(seed uint64) (nsPerDraw, nsPerPair float64) {
	const block = 1 << 21
	draws := make([]float64, 9)
	pairs := make([]float64, 9)
	src := rng.New(seed)
	sched := sspp.NewUniform(seed)
	for i := range draws {
		t0 := now()
		for k := 0; k < block; k++ {
			sink += src.Uint64()
		}
		draws[i] = float64(now().Sub(t0)) / block
		t0 = now()
		for k := 0; k < block; k++ {
			a, b := sched.Pair(electN)
			sink += uint64(a ^ b)
		}
		pairs[i] = float64(now().Sub(t0)) / block
	}
	return median(draws), median(pairs)
}

// runTraced is the --trace 1 run of w: calibration, a probe of every other
// layer group, then w's own group traced for the rest of d. It writes the
// retained spans under workDir and returns the per-layer metrics.
func runTraced(w *workload, seed uint64, d time.Duration) (result, error) {
	l := &ledger{origin: now(), correct: true}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	v := map[string]float64{}
	v["rng.ns_per_draw"], l.nsPerPair = calibrate(seed)
	v["sched.ns_per_pair"] = l.nsPerPair

	home := d - 2*probeTime
	if home < d/2 {
		home = d / 2
	}
	run := func(group string, d time.Duration, minOps int) (map[string]float64, error) {
		switch group {
		case groupAgent:
			if w.group == groupAgent {
				return traceElect(l, w.r, seed, d, minOps), nil
			}
			return traceElect(l, 8, seed, d, minOps), nil
		case groupSpecies:
			return traceCIW(l, seed, d, minOps, w.group == groupSpecies), nil
		default:
			return traceSppd(l, seed, d, w.group == groupServe)
		}
	}
	// Probes first, the home group last: where two groups measure the same
	// metric (system.*, trace.overhead_share), the home group's value stands;
	// sppd-mix, which constructs no system itself, reports the agent probe's.
	for _, g := range []string{groupAgent, groupSpecies, groupServe} {
		if g == w.group {
			continue
		}
		m, err := run(g, probeTime, 3)
		if err != nil {
			return result{}, fmt.Errorf("%s probe: %w", g, err)
		}
		maps.Copy(v, m)
	}
	m, err := run(w.group, home, 10)
	if err != nil {
		return result{}, err
	}
	maps.Copy(v, m)
	runtime.ReadMemStats(&gc1)
	elapsed := now().Sub(l.origin).Seconds()
	cycles := float64(gc1.NumGC - gc0.NumGC)
	v["gc.cycles_per_s"] = cycles / elapsed
	v["gc.pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6 / max(cycles, 1)

	tf := traceFile{Workload: w.name, Seed: seed}
	for _, t := range l.tracers {
		tf.Tracers = append(tf.Tracers, tracerSpans{Name: t.name, Dropped: t.dropped, Spans: t.spans})
		t.report(os.Stdout)
	}
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := writeTrace(path, tf); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	if miss := missing(perLayerMetrics, v); len(miss) > 0 {
		return result{}, fmt.Errorf("traced run measured no value for %v", miss)
	}
	return result{Correct: l.correct, Attempted: l.attempted, Failed: l.failed, Metrics: withUnits(perLayerMetrics, v)}, nil
}
