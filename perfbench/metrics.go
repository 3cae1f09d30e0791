package main

import (
	"math"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark input set (BENCHMARK.json says why each is
// there): run executes its set-up and its timed phase with no tracing; group
// names the layer group it is home to in a traced run (see runTraced).
type workload struct {
	name  string
	group string
	r     int // ElectLeader_r's r, for the elect-* workloads
	run   func(seed uint64, d time.Duration) (*runStats, error)
}

var workloads = map[string]*workload{
	"elect-r64": {
		name: "elect-r64", group: groupAgent, r: 64,
		run: func(seed uint64, d time.Duration) (*runStats, error) { return runElect(64, seed, d) },
	},
	"elect-r8": {
		name: "elect-r8", group: groupAgent, r: 8,
		run: func(seed uint64, d time.Duration) (*runStats, error) { return runElect(8, seed, d) },
	},
	"ciw-species": {
		name: "ciw-species", group: groupSpecies,
		run: runCIW,
	},
	"sppd-mix": {
		name: "sppd-mix", group: groupServe,
		run: runSppd,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"interactions_per_s", "interactions/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayerMetrics = []metricDef{
	{"rng.ns_per_draw", "ns", "lower"},
	{"sched.ns_per_pair", "ns", "lower"},
	{"sched.share", "%", "lower"},
	{"core.ns_per_interaction", "ns", "lower"},
	{"core.share", "%", "lower"},
	{"core.allocs_per_interaction", "count", "lower"},
	{"poll.polls_per_op", "count", "lower"},
	{"poll.us_per_poll", "us", "lower"},
	{"poll.share", "%", "lower"},
	{"run.overhead_share", "%", "lower"},
	{"run.allocs_per_op", "count", "lower"},
	{"run.kb_per_op", "KiB", "lower"},
	{"system.us_per_op", "us", "lower"},
	{"system.allocs_per_op", "count", "lower"},
	{"system.kb_per_op", "KiB", "lower"},
	{"species.ns_per_interaction", "ns", "lower"},
	{"species.allocs_per_op", "count", "lower"},
	{"ensemble.ms_per_cell", "ms", "lower"},
	{"ensemble.json_us_per_cell", "us", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.hash_us_per_cell", "us", "lower"},
	{"serve.handler_us_warm", "us", "lower"},
	{"serve.http_us", "us", "lower"},
	{"serve.memory_hit_ratio", "%", "higher"},
	{"serve.disk_hit_ratio", "%", "lower"},
	{"serve.disk_read_us", "us", "lower"},
	{"serve.cold_ms_per_cell", "ms", "lower"},
	{"serve.compute_share_cold", "%", "higher"},
	{"serve.sse_frames_per_op", "count", "lower"},
	{"serve.sse_done_lag_ms", "ms", "lower"},
	{"serve.response_kb", "KiB", "lower"},
	{"serve.dedup_computed", "count", "lower"},
	{"gc.cycles_per_s", "1/s", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"trace.overhead_share", "%", "lower"},
}

// runStats is what one untraced run measured.
type runStats struct {
	setup     []float64 // seconds, one entry per set-up repetition
	opMs      []float64 // wall time of every operation
	rates     []float64 // interactions per second of every operation
	attempted int
	failed    int
	timed     time.Duration // wall time of the timed phase (see timedLoop and mix)
	correct   bool          // run-level checks (those not tied to one operation) held
}

// endToEnd turns the run into the closing result with every end-to-end
// metric.
func (r *runStats) endToEnd() result {
	v := map[string]float64{
		"setup_s":            median(r.setup),
		"ops_per_s":          float64(r.attempted-r.failed) / r.timed.Seconds(),
		"op_ms_p50":          quantile(r.opMs, 0.5),
		"op_ms_p90":          quantile(r.opMs, 0.9),
		"interactions_per_s": median(r.rates),
		"peak_rss_mb":        peakRSSMB(),
	}
	return result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: withUnits(endToEndMetrics, v)}
}

// withUnits pairs each defined metric with its value; a metric without a
// value is a bug in the workload, reported as NaN so the JSON encoder fails
// loudly rather than the run printing a partial ledger.
func withUnits(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			x = math.NaN()
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out
}

// missing lists the defined metrics v has no finite value for.
func missing(defs []metricDef, v map[string]float64) []string {
	var out []string
	for _, d := range defs {
		if x, ok := v[d.name]; !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			out = append(out, d.name)
		}
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB is this process's peak resident set in MB (ru_maxrss is in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// splitmix64 derives the benchmark's inputs from its seed, independently of
// the program's own generators, so a change to the program's PRNG cannot
// change what the benchmark feeds it.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }
