package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"dkip/internal/sim"
)

// steadyPairs are the (machine, benchmark) pairs of the steady workload, the
// same pairs as cmd/bench's BENCH_*.json snapshots: one per engine family.
var steadyPairs = []struct{ preset, bench string }{
	{"dkip", "swim"},
	{"r10-64", "mcf"},
	{"inorder", "swim"},
}

// steadyScale is the warmup and measured length of each steady simulation:
// long enough that engine construction and cache warming stay under 1% of a
// run.
func steadyScale(tiny bool) (warmup, measure uint64) {
	if tiny {
		return 1_000, 20_000
	}
	return 10_000, 500_000
}

// runSteady simulates the three pairs one at a time on this goroutine, with
// no Runner, cache or HTTP in the way. Each repetition runs every pair once,
// in an order drawn from the seed; repetitions continue until the measuring
// time is spent. A repetition's wall time is the sum of its simulations'
// set-up and run times. A traced run alternates untraced and traced
// repetitions.
func runSteady(cfg config, tr *tracer) (*report, error) {
	warmup, measure := steadyScale(cfg.tiny)
	specs := make([]sim.RunSpec, len(steadyPairs))
	for i, p := range steadyPairs {
		s, err := sim.PresetSpec(p.preset, p.bench, warmup, measure)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x57ead1))
	rep := newReport()
	sums := newDigests()

	var setups, walls, minstr, simsPerS []float64
	perArch := map[string][]float64{}
	traced := map[string][]engineSample{}
	var tracedWalls, untracedWalls []float64
	minReps := 3
	if cfg.trace {
		minReps = 4
	}
	start := time.Now()
	for r := 0; r < minReps || time.Since(start).Seconds() < cfg.seconds; r++ {
		on := cfg.trace && r%2 == 1
		tr.on.Store(on)
		repID := tr.newID()
		repStart := tr.now()
		var setup, wall time.Duration
		var instrs uint64
		ok := true
		for _, i := range rng.Perm(len(specs)) {
			spec := specs[i]
			rep.attempted++
			// Collect the previous simulation's garbage outside the timed
			// calls, so no run pays for another's collection.
			runtime.GC()
			es, st, err := measureEngine(spec, on, tr, repID)
			label := spec.Label()
			if err == nil {
				err = checkCommitted(label, st, measure)
			}
			if err == nil {
				err = sums.check(label, st)
			}
			if err != nil {
				rep.fail("%v", err)
				ok = false
				continue
			}
			setup += es.setup
			wall += es.setup + es.run
			instrs += es.instrs
			arch := spec.Arch.String()
			perArch[arch] = append(perArch[arch], float64(es.instrs)/1e6/es.run.Seconds())
			if on {
				traced[arch] = append(traced[arch], es)
			}
		}
		tr.add(span{ID: repID, Name: "steady.repetition", Start: repStart, End: tr.now()})
		if !ok {
			continue
		}
		if on {
			tracedWalls = append(tracedWalls, wall.Seconds())
			continue
		}
		if cfg.trace {
			untracedWalls = append(untracedWalls, wall.Seconds())
		}
		setups = append(setups, setup.Seconds())
		walls = append(walls, wall.Seconds())
		minstr = append(minstr, float64(instrs)/1e6/wall.Seconds())
		simsPerS = append(simsPerS, float64(len(specs))/wall.Seconds())
	}
	tr.on.Store(false)
	rep.digest = sums.sum()
	if len(walls) == 0 {
		return rep, nil
	}

	rep.set("setup_s", median(setups))
	rep.set("wall_s", fastTime(walls))
	rep.set("sim_minstr_per_s", fastRate(minstr))
	rep.set("sims_per_s", fastRate(simsPerS))
	// One request is one simulation here: nothing sits between the
	// caller and the engine.
	rep.set("req_per_s", fastRate(simsPerS))
	for _, a := range engineArchs {
		rep.set(a+"_minstr_per_s", fastRate(perArch[a]))
	}
	if !cfg.trace {
		return rep, nil
	}
	if len(traced) != len(engineArchs) {
		return nil, fmt.Errorf("traced repetitions did not cover every engine")
	}
	rep.set("trace.overhead_frac", median(tracedWalls)/median(untracedWalls)-1)
	rep.set("workload.instrs_generated", float64(len(specs))*float64(warmup+measure))
	// swim feeds two of the three simulations.
	rep.set("workload.sims_per_stream", float64(len(specs))/float64(distinctBenches(specs)))
	reps := map[string]sim.RunSpec{}
	for _, s := range specs {
		reps[s.Arch.String()] = s
	}
	if err := replayLayers(rep, reps, traced, cfg.tiny); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// distinctBenches counts the instruction streams a set of specs draws from.
func distinctBenches(specs []sim.RunSpec) int {
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Bench] = true
	}
	return len(seen)
}
