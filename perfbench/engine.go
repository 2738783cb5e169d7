package main

import (
	"fmt"
	"runtime"
	"time"

	"dkip/internal/pipeline"
	"dkip/internal/predictor"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// predictorOwner is the engine method the predictor replay needs beyond
// sample.Engine.
type predictorOwner interface {
	Predictor() *predictor.Stats
}

// engineSample is one timed simulation driven directly through
// RunSpec.NewEngine, Hierarchy().Warm and Engine.Run.
type engineSample struct {
	spec  sim.RunSpec
	setup time.Duration // NewEngine plus Warm
	run   time.Duration
	// instrs is warmup plus measure: every instruction Run simulated.
	instrs uint64
	cycles int64 // measured-phase cycles
	ipc    float64
	// accesses and lookups count the demand memory accesses and branch
	// predictions Run made.
	accesses, lookups uint64
	// Allocation counts, taken only when counted is set: bytes allocated
	// by set-up and allocations made during Run.
	counted               bool
	setupBytes, runAllocs uint64
}

// nsPerCycle estimates host time per simulated cycle over the whole run,
// scaling the measured-phase cycle count up to warmup plus measure.
func (e engineSample) nsPerCycle() float64 {
	cycles := float64(e.cycles) * float64(e.instrs) / float64(e.spec.Measure)
	return float64(e.run) / cycles
}

// measureEngine builds the spec's machine, warms its caches and runs it.
// Spans go under parent when the tracer is on; allocation counts are taken
// when memstats is set, since reading them stops the world. A panic inside
// the simulator is returned as an error.
func measureEngine(spec sim.RunSpec, memstats bool, tr *tracer, parent int64) (es engineSample, st *pipeline.Stats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: simulator panic: %v", spec.Label(), p)
		}
	}()
	es.spec = spec
	es.counted = memstats
	es.instrs = spec.Warmup + spec.Measure
	var ms runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms)
	}
	bytes0 := ms.TotalAlloc

	t0 := tr.now()
	start := time.Now()
	g, err := workload.New(spec.Bench)
	if err != nil {
		return es, nil, err
	}
	t1 := tr.now()
	e := spec.NewEngine()
	t2 := tr.now()
	e.Hierarchy().Warm(g.WarmRanges())
	es.setup = time.Since(start)
	t3 := tr.now()
	if memstats {
		runtime.ReadMemStats(&ms)
		es.setupBytes = ms.TotalAlloc - bytes0
	}
	mallocs0 := ms.Mallocs

	t4 := tr.now()
	runStart := time.Now()
	st = e.Run(g, spec.Warmup, spec.Measure)
	es.run = time.Since(runStart)
	t5 := tr.now()
	if memstats {
		runtime.ReadMemStats(&ms)
		es.runAllocs = ms.Mallocs - mallocs0
	}

	es.cycles = st.Cycles
	es.ipc = st.IPC()
	es.accesses = e.Hierarchy().Accesses()
	if p, ok := e.(predictorOwner); ok {
		es.lookups = p.Predictor().Lookups
	}
	arch := spec.Arch.String()
	tr.add(span{Parent: parent, Name: "workload.new", Start: t0, End: t1})
	tr.add(span{Parent: parent, Name: "engine." + arch + ".new", Start: t1, End: t2})
	tr.add(span{Parent: parent, Name: "mem.warm", Start: t2, End: t3})
	tr.add(span{Parent: parent, Name: "engine." + arch + ".run", Start: t4, End: t5})
	return es, st, nil
}

// replayEngines measures each representative spec directly, outside any
// Runner: a few timed set-ups, then runs until enough host time has been
// spent for a stable per-instruction cost.
func replayEngines(reps map[string]sim.RunSpec, tiny bool) (map[string][]engineSample, error) {
	budget := 300 * time.Millisecond
	if tiny {
		budget = 10 * time.Millisecond
	}
	out := map[string][]engineSample{}
	for _, a := range engineArchs {
		spec, ok := reps[a]
		if !ok {
			return nil, fmt.Errorf("no %s simulation to replay", a)
		}
		start := time.Now()
		for i := 0; i < 3 || time.Since(start) < budget; i++ {
			es, st, err := measureEngine(spec, i == 0, newTracer(), 0)
			if err == nil {
				err = checkCommitted(spec.Label(), st, spec.Measure)
			}
			if err != nil {
				return nil, err
			}
			out[a] = append(out[a], es)
		}
	}
	return out, nil
}
