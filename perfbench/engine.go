package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"sspp"
)

// The engine workloads run on one goroutine. elect-* is the paper's
// headline run (ElectLeader_r from the triggered class to the safe set of
// Lemma 6.1); ciw-species is the million-agent count-based path.
const (
	electN       = 256
	ciwN         = 1_000_000
	ciwHorizon   = 3    // parallel-time units per ciw-species operation
	ciwTolerance = 0.01 // relative tolerance on the mean-field leader count
	setupReps    = 5    // set-up repetitions per run; setup_s is their median
)

func electConfig(r int, seed uint64) sspp.Config {
	return sspp.Config{N: electN, R: r, Seed: seed}
}

// newElect is one elect-* construction: New plus the triggered injection.
func newElect(cfg sspp.Config, injSeed uint64) (*sspp.System, error) {
	sys, err := sspp.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Inject(sspp.AdversaryTriggered, injSeed); err != nil {
		return nil, err
	}
	return sys, nil
}

// checkElect checks a finished elect-* trial: stabilized without error,
// exactly one leader, in the safe set, and ranks a permutation of 1..n.
func checkElect(sys *sspp.System, res sspp.Result) error {
	if res.Err != nil {
		return fmt.Errorf("run error: %v", res.Err)
	}
	if !res.Stabilized {
		return fmt.Errorf("not stabilized after %d interactions", res.Interactions)
	}
	if l := sys.Leaders(); l != 1 {
		return fmt.Errorf("%d leaders", l)
	}
	if !sys.InSafeSet() {
		return fmt.Errorf("stopped outside the safe set")
	}
	return checkPermutation(sys.Ranks())
}

// checkPermutation reports whether ranks holds each of 1..len(ranks) once.
func checkPermutation(ranks []int) error {
	seen := make([]bool, len(ranks)+1)
	for i, r := range ranks {
		if r < 1 || r > len(ranks) || seen[r] {
			return fmt.Errorf("agent %d has rank %d: ranks are not a permutation of 1..%d", i, r, len(ranks))
		}
		seen[r] = true
	}
	if len(ranks) == 0 {
		return fmt.Errorf("no ranks")
	}
	return nil
}

// electOp runs one untraced elect-* trial and returns its wall time.
func electOp(r int, cfgSeed, injSeed uint64) (time.Duration, uint64, error) {
	t0 := now()
	sys, err := newElect(electConfig(r, cfgSeed), injSeed)
	if err != nil {
		return now().Sub(t0), 0, err
	}
	res := sys.Run()
	dt := now().Sub(t0)
	return dt, res.Interactions, checkElect(sys, res)
}

// timedLoop runs setupReps set-ups of warmups warm-up operations each, then
// operations until d of wall time has passed. The timed phase is the
// operations themselves: the checks of each operation's output stay outside
// it, and so does a garbage collection after each operation, warm-up or
// timed, so that every operation starts from the same heap and none pays for
// the garbage of the one before. An operation returns its wall time, its
// interaction count and the result of its checks.
func timedLoop(d time.Duration, warmups int, warm, op func() (time.Duration, uint64, error)) (*runStats, error) {
	st := &runStats{correct: true}
	for i := 0; i < setupReps; i++ {
		var rep time.Duration
		for k := 0; k < warmups; k++ {
			dt, _, err := warm()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			rep += dt
			runtime.GC()
		}
		st.setup = append(st.setup, rep.Seconds())
	}
	for start := now(); now().Sub(start) < d; {
		dt, inter, err := op()
		st.attempted++
		st.timed += dt
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", st.attempted, err)
		}
		st.opMs = append(st.opMs, float64(dt)/float64(time.Millisecond))
		st.rates = append(st.rates, float64(inter)/dt.Seconds())
		runtime.GC()
	}
	return st, nil
}

// runElect is elect-r64 and elect-r8: one operation is one trial, New +
// Inject(triggered) + Run() with its defaults. A set-up is three warm-up
// trials.
func runElect(r int, seed uint64, d time.Duration) (*runStats, error) {
	gen := splitmix64(seed)
	warm := splitmix64(^seed)
	return timedLoop(d, 3,
		func() (time.Duration, uint64, error) { return electOp(r, warm.next(), warm.next()) },
		func() (time.Duration, uint64, error) { return electOp(r, gen.next(), gen.next()) })
}

func ciwConfig(seed uint64) sspp.Config {
	return sspp.Config{Protocol: sspp.ProtocolCIW, N: ciwN, Backend: sspp.BackendSpecies, Seed: seed}
}

// checkCIW checks a ciw-species system after its horizon: the rank-1 count
// must sit within ciwTolerance of the mean-field value n/(1+T).
func checkCIW(sys *sspp.System, ran uint64) error {
	if want := uint64(ciwHorizon * ciwN); ran != want {
		return fmt.Errorf("ran %d interactions, want %d", ran, want)
	}
	want := float64(ciwN) / (1 + ciwHorizon)
	if got := float64(sys.Leaders()); got < want*(1-ciwTolerance) || got > want*(1+ciwTolerance) {
		return fmt.Errorf("%.0f rank-1 agents after T=%d, mean field says %.0f", got, ciwHorizon, want)
	}
	return nil
}

// ciwOp runs one untraced ciw-species operation: New + Run for T·n
// interactions.
func ciwOp(seed uint64) (time.Duration, uint64, error) {
	t0 := now()
	sys, err := sspp.New(ciwConfig(seed))
	if err != nil {
		return now().Sub(t0), 0, err
	}
	res := sys.Run(sspp.MaxInteractions(ciwHorizon * ciwN))
	dt := now().Sub(t0)
	if res.Err != nil {
		return dt, res.Interactions, fmt.Errorf("run error: %v", res.Err)
	}
	return dt, res.Interactions, checkCIW(sys, res.Interactions)
}

// runCIW is ciw-species. A set-up is two warm-up operations.
func runCIW(seed uint64, d time.Duration) (*runStats, error) {
	gen := splitmix64(seed)
	warm := splitmix64(^seed)
	return timedLoop(d, 2,
		func() (time.Duration, uint64, error) { return ciwOp(warm.next()) },
		func() (time.Duration, uint64, error) { return ciwOp(gen.next()) })
}

// redrive drives sys to the safe set the way Run does by default — one
// scheduler stream seeded schedSeed, a poll every ⌊n/2⌋+1 interactions,
// starting with a poll at 0 — but through StepSched and InSafeSet, with a
// span around each, and returns the interaction count it stopped at.
func redrive(tr *tracer, op int, sys *sspp.System, schedSeed uint64) (at uint64, polls int, err error) {
	sched := sspp.NewUniform(schedSeed)
	poll := uint64(sys.N()/2 + 1)
	max := sys.DefaultBudget()
	for {
		tr.begin("poll", op)
		held := sys.InSafeSet()
		tr.end()
		polls++
		if held {
			return at, polls, nil
		}
		if at >= max {
			return at, polls, fmt.Errorf("re-drive left the safe set unreached after %d interactions", at)
		}
		k := min(poll, max-at)
		tr.begin("step", op)
		sys.StepSched(sched, k)
		tr.end()
		at += k
	}
}

// memDelta is the allocation count and bytes between two MemStats reads.
func memDelta(a, b *runtime.MemStats) (allocs, bytes float64) {
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// traceElect is the traced agent-engine group: each operation is an elect-*
// trial run once through System.Run and once more, from the same
// construction, through the spanned re-drive, which must stop at exactly the
// interaction count Run reported.
func traceElect(l *ledger, r int, seed uint64, d time.Duration, minOps int) map[string]float64 {
	tr := l.newTracer(fmt.Sprintf("elect-r%d", r))
	gen := splitmix64(seed)
	var inter uint64
	var polls, ops int
	var sysA, sysB, runA, runB, coreA float64
	var m [5]runtime.MemStats
	start := now()
	for ops < minOps || now().Sub(start) < d {
		cfg, injSeed := electConfig(r, gen.next()), gen.next()
		tr.begin("op", ops)
		runtime.ReadMemStats(&m[0])
		tr.begin("system", ops)
		sys, err := newElect(cfg, injSeed)
		tr.end()
		if err != nil {
			tr.end()
			l.done(ops, err)
			ops++
			continue
		}
		runtime.ReadMemStats(&m[1])
		tr.begin("run", ops)
		res := sys.Run()
		tr.end()
		runtime.ReadMemStats(&m[2])
		err = checkElect(sys, res)
		again, _ := newElect(cfg, injSeed) // the same construction succeeded above
		runtime.ReadMemStats(&m[3])
		tr.begin("redrive", ops)
		at, p, derr := redrive(tr, ops, again, cfg.Seed+1)
		tr.end()
		runtime.ReadMemStats(&m[4])
		tr.end()
		if err == nil && derr != nil {
			err = derr
		}
		if err == nil && at != res.Interactions {
			err = fmt.Errorf("re-drive reached the safe set at %d interactions, Run at %d", at, res.Interactions)
		}
		l.done(ops, err)
		inter += at
		polls += p
		a, b := memDelta(&m[0], &m[1])
		sysA, sysB = sysA+a, sysB+b
		a, b = memDelta(&m[1], &m[2])
		runA, runB = runA+a, runB+b
		a, _ = memDelta(&m[3], &m[4])
		coreA += a
		ops++
	}
	run := tr.total["run"].Seconds()
	sched := float64(inter) * l.nsPerPair / 1e9
	core := tr.total["step"].Seconds() - sched
	poll := tr.total["poll"].Seconds()
	fops := float64(ops)
	return map[string]float64{
		"sched.share":                 100 * sched / run,
		"core.ns_per_interaction":     core * 1e9 / float64(inter),
		"core.share":                  100 * core / run,
		"core.allocs_per_interaction": coreA / float64(inter),
		"poll.polls_per_op":           float64(polls) / fops,
		"poll.us_per_poll":            poll * 1e6 / float64(polls),
		"poll.share":                  100 * poll / run,
		"run.overhead_share":          100 * (run - sched - core - poll) / run,
		"run.allocs_per_op":           runA / fops,
		"run.kb_per_op":               runB / 1024 / fops,
		"system.us_per_op":            tr.total["system"].Seconds() * 1e6 / fops,
		"system.allocs_per_op":        sysA / fops,
		"system.kb_per_op":            sysB / 1024 / fops,
		"trace.overhead_share":        100 * (tr.total["redrive"].Seconds() - run) / run,
	}
}

// traceCIW is the traced species group: each operation is a ciw-species
// operation through System.Run, then the same construction stepped through
// one spanned StepSched call on the species engine. Its construction costs
// stand for system.* only when ciw-species is the traced workload (home).
func traceCIW(l *ledger, seed uint64, d time.Duration, minOps int, home bool) map[string]float64 {
	tr := l.newTracer("ciw-species")
	gen := splitmix64(seed)
	var ops int
	var sysA, sysB, specA float64
	var m [4]runtime.MemStats
	start := now()
	for ops < minOps || now().Sub(start) < d {
		cfg := ciwConfig(gen.next())
		tr.begin("op", ops)
		runtime.ReadMemStats(&m[0])
		tr.begin("system", ops)
		sys, err := sspp.New(cfg)
		tr.end()
		runtime.ReadMemStats(&m[1])
		if err != nil {
			tr.end()
			l.done(ops, err)
			ops++
			continue
		}
		tr.begin("run", ops)
		res := sys.Run(sspp.MaxInteractions(ciwHorizon * ciwN))
		tr.end()
		err = res.Err
		if err == nil {
			err = checkCIW(sys, res.Interactions)
		}
		again, _ := sspp.New(cfg) // the same construction succeeded above
		runtime.ReadMemStats(&m[2])
		tr.begin("species", ops)
		again.StepSched(sspp.NewUniform(cfg.Seed+1), ciwHorizon*ciwN)
		tr.end()
		runtime.ReadMemStats(&m[3])
		tr.end()
		if err == nil {
			err = checkCIW(again, again.Interactions())
		}
		l.done(ops, err)
		a, b := memDelta(&m[0], &m[1])
		sysA, sysB = sysA+a, sysB+b
		a, _ = memDelta(&m[2], &m[3])
		specA += a
		ops++
	}
	fops := float64(ops)
	run := tr.total["run"].Seconds()
	v := map[string]float64{
		"species.ns_per_interaction": tr.total["species"].Seconds() * 1e9 / (fops * ciwHorizon * ciwN),
		"species.allocs_per_op":      specA / fops,
	}
	if home {
		v["system.us_per_op"] = tr.total["system"].Seconds() * 1e6 / fops
		v["system.allocs_per_op"] = sysA / fops
		v["system.kb_per_op"] = sysB / 1024 / fops
		v["trace.overhead_share"] = 100 * (tr.total["species"].Seconds() - run) / run
	}
	return v
}
