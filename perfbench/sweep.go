package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"dkip/internal/experiments"
	"dkip/internal/mem"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// sweepBenchesPerSuite is how many benchmarks of each suite every
// (machine, L2 size) cell of the sweep's cache grid runs.
const sweepBenchesPerSuite = 5

// sweepScale is the per-simulation length: the experiments' QuickScale, or
// a sliver of it for smoke tests.
func sweepScale(tiny bool) (warmup, measure uint64) {
	if tiny {
		return 200, 1_000
	}
	s := experiments.QuickScale()
	return s.Warmup, s.Measure
}

// sweepGrid builds the cold sweep, shaped like Figures 9 and 12: every
// preset machine on every benchmark at its own memory system, then every
// preset at every L2 size of experiments.L2Sizes on benchmarks the seed
// draws per cell, half SpecINT and half SpecFP. The seed also shuffles the
// submission order. A preset whose own L2 size appears in L2Sizes repeats
// its first-part specs in that cell, which the Runner deduplicates.
func sweepGrid(seed uint64, tiny bool) ([]sim.RunSpec, error) {
	warmup, measure := sweepScale(tiny)
	rng := rand.New(rand.NewPCG(seed, 0x5eeb))
	var specs []sim.RunSpec
	for _, p := range sim.PresetNames() {
		for _, b := range workload.Names() {
			s, err := sim.PresetSpec(p, b, warmup, measure)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
	}
	suites := [][]string{workload.SuiteNames(workload.SpecINT), workload.SuiteNames(workload.SpecFP)}
	for _, p := range sim.PresetNames() {
		for _, l2 := range experiments.L2Sizes {
			for _, suite := range suites {
				for _, i := range rng.Perm(len(suite))[:sweepBenchesPerSuite] {
					s, err := sim.PresetSpec(p, suite[i], warmup, measure)
					if err != nil {
						return nil, err
					}
					withL2(&s, l2)
					specs = append(specs, s)
				}
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs, nil
}

// withL2 replaces the L2 capacity of the spec's memory system, starting
// from the paper's default hierarchy when the configuration leaves it
// unset.
func withL2(s *sim.RunSpec, l2 int) {
	resize := func(m *mem.Config) {
		if m.L1Latency == 0 {
			*m = mem.DefaultConfig()
		}
		*m = m.WithL2Size(l2)
	}
	switch s.Arch {
	case sim.ArchDKIP:
		resize(&s.DKIP.Mem)
	case sim.ArchOOO:
		resize(&s.OOO.Mem)
	case sim.ArchInorder:
		resize(&s.Inorder.Mem)
	}
}

// sweepSetupReps is how many times the sweep's set-up is timed before each
// repetition; the median over the run is reported.
const sweepSetupReps = 7

// runSweep submits the cold grid through one fresh Runner per repetition,
// with Parallel(nproc), memoization on and no Store. Another repetition
// starts while at least half of one fits in the measuring time. A traced run alternates
// untraced and traced repetitions; traced ones record a span per
// simulation from the Runner's OnSimulate hook to the result's Elapsed.
func runSweep(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	sums := newDigests()
	// hook records when each simulation starts, by content key; it is
	// installed only on traced repetitions.
	var hookMu sync.Mutex
	hookAt := map[string]int64{}
	hook := func(s sim.RunSpec) {
		t := tr.now()
		k := s.Key()
		hookMu.Lock()
		hookAt[k] = t
		hookMu.Unlock()
	}
	build := func(traced bool) ([]sim.RunSpec, *sim.Runner, error) {
		grid, err := sweepGrid(cfg.seed, cfg.tiny)
		if err != nil {
			return nil, nil, err
		}
		opts := []sim.Option{sim.Parallel(nproc())}
		if traced {
			opts = append(opts, sim.OnSimulate(hook))
		}
		return grid, sim.NewRunner(opts...), nil
	}
	var setups []float64
	var walls, simsPerS, reqPerS, minstr []float64
	var tracedWalls, untracedWalls []float64
	perArch := map[string][]float64{}
	var lastGrid []sim.RunSpec
	var lastRunner *sim.Runner
	var queueWait, runallSelf []float64
	var instrsPerRep float64
	minReps := 1
	if cfg.trace {
		minReps = 2
	}
	start := time.Now()
	for r := 0; ; r++ {
		if r >= minReps {
			left := cfg.seconds - time.Since(start).Seconds()
			if len(walls) == 0 || left < median(walls)/2 {
				break
			}
		}
		on := cfg.trace && r%2 == 1
		tr.on.Store(on)
		// Set-up is timed several times before every repetition, so its
		// median spans the whole run; the last build is the one used.
		var grid []sim.RunSpec
		var runner *sim.Runner
		for i := 0; i < sweepSetupReps; i++ {
			runtime.GC()
			start := time.Now()
			g, rn, err := build(on)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			grid, runner = g, rn
		}
		rep.attempted += len(grid)
		runID := tr.newID()
		t0 := tr.now()
		begin := time.Now()
		results, err := runner.RunAll(grid)
		wall := time.Since(begin)
		t1 := tr.now()
		if err != nil {
			rep.fail("sweep repetition %d: %v", r, err)
		}
		var instrs float64
		ok := err == nil
		for i, res := range results {
			if res == nil {
				continue
			}
			label := grid[i].Label() + "/" + res.Key
			if err := checkCommitted(label, res.Stats, grid[i].Measure); err != nil {
				rep.fail("%v", err)
				ok = false
				continue
			}
			if err := sums.check(res.Key, res.Stats); err != nil {
				rep.fail("%v", err)
				ok = false
				continue
			}
			if res.Cached {
				continue
			}
			n := float64(res.Warmup + res.Measure)
			instrs += n
			if !on {
				perArch[res.Arch] = append(perArch[res.Arch], n/1e6/res.Elapsed.Seconds())
			}
			if on {
				hookMu.Lock()
				at, seen := hookAt[res.Key]
				hookMu.Unlock()
				if !seen {
					return nil, fmt.Errorf("no OnSimulate call for %s", label)
				}
				queueWait = append(queueWait, float64(at-t0)/1e6)
				tr.add(span{Parent: runID, Name: "sim.simulate", Start: at, End: at + int64(res.Elapsed)})
			}
		}
		if on {
			tr.add(span{ID: runID, Name: "sim.runall", Start: t0, End: t1})
			runallSelf = append(runallSelf, float64(selfTime(span{Start: t0, End: t1}, children(tr.snapshot())[runID]))/1e6)
			tracedWalls = append(tracedWalls, wall.Seconds())
			lastGrid, lastRunner = grid, runner
			continue
		}
		if !ok {
			continue
		}
		if cfg.trace {
			untracedWalls = append(untracedWalls, wall.Seconds())
		}
		sims := float64(runner.Metrics().Simulated)
		walls = append(walls, wall.Seconds())
		simsPerS = append(simsPerS, sims/wall.Seconds())
		reqPerS = append(reqPerS, float64(len(grid))/wall.Seconds())
		minstr = append(minstr, instrs/1e6/wall.Seconds())
		instrsPerRep = instrs
		lastGrid, lastRunner = grid, runner
	}
	tr.on.Store(false)
	rep.digest = sums.sum()
	if len(walls) == 0 {
		return rep, nil
	}
	rep.set("setup_s", median(setups))
	rep.set("wall_s", fastTime(walls))
	rep.set("sims_per_s", fastRate(simsPerS))
	rep.set("req_per_s", fastRate(reqPerS))
	rep.set("sim_minstr_per_s", fastRate(minstr))
	for _, a := range engineArchs {
		if len(perArch[a]) == 0 {
			return nil, fmt.Errorf("the sweep ran no %s simulation", a)
		}
		// Per-core speed of each engine inside the sweep: a simulation's
		// instructions over its Elapsed, which includes its own engine
		// set-up and cache warming, read at the run's fast end.
		rep.set(a+"_minstr_per_s", fastRate(perArch[a]))
	}
	if !cfg.trace {
		return rep, nil
	}

	m := lastRunner.Metrics()
	rep.set("trace.overhead_frac", median(tracedWalls)/median(untracedWalls)-1)
	rep.set("workload.instrs_generated", instrsPerRep)
	rep.set("workload.sims_per_stream", float64(m.Simulated)/float64(distinctBenches(lastGrid)))
	rep.set("sim.dedup_frac", ratio(m.Deduped+m.CacheHits, m.Requested))
	rep.set("sim.queue_wait_ms", median(queueWait))
	rep.set("sim.runall_self_ms", median(runallSelf))
	if err := replaySim(rep, lastGrid, lastRunner, cfg.tiny); err != nil {
		return nil, err
	}
	reps := firstPerArch(lastGrid)
	samples, err := replayEngines(reps, cfg.tiny)
	if err != nil {
		return nil, err
	}
	if err := replayLayers(rep, reps, samples, cfg.tiny); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// firstPerArch picks each engine family's first spec in submission order.
func firstPerArch(specs []sim.RunSpec) map[string]sim.RunSpec {
	out := map[string]sim.RunSpec{}
	for _, s := range specs {
		if _, ok := out[s.Arch.String()]; !ok {
			out[s.Arch.String()] = s
		}
	}
	return out
}

// replaySim times the sim layer's own calls on the workload's specs:
// RunSpec.Key, a memo hit on an already-resolved spec, and the part of a
// fresh Runner.Run that is not the simulation itself.
func replaySim(rep *report, specs []sim.RunSpec, resolved *sim.Runner, tiny bool) error {
	keys := 1000
	if tiny {
		keys = 50
	}
	start := time.Now()
	for i := 0; i < keys; i++ {
		_ = specs[i%len(specs)].Key()
	}
	rep.set("sim.key_us", float64(time.Since(start))/1e3/float64(keys))

	n := min(200, len(specs))
	var hits []float64
	for _, s := range specs[:n] {
		t := time.Now()
		res, err := resolved.Run(s)
		d := time.Since(t)
		if err != nil {
			return err
		}
		if !res.Cached {
			return fmt.Errorf("%s: resolved spec simulated again", s.Label())
		}
		hits = append(hits, float64(d)/1e3)
	}
	rep.set("sim.memo_hit_us", median(hits))

	fresh := sim.NewRunner(sim.Parallel(1))
	var over []float64
	for _, s := range specs[:min(10, len(specs))] {
		t := time.Now()
		res, err := fresh.Run(s)
		d := time.Since(t)
		if err != nil {
			return err
		}
		if !res.Cached {
			over = append(over, float64(d-res.Elapsed)/1e3)
		}
	}
	rep.set("sim.runner_overhead_us", median(over))
	return nil
}
