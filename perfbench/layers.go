package main

import (
	"fmt"
	"time"

	"dkip/internal/isa"
	"dkip/internal/mem"
	"dkip/internal/pipeline"
	"dkip/internal/sim"
	"dkip/internal/trace"
	"dkip/internal/workload"
)

// sinkInstr keeps replayed results alive so the compiler cannot drop the
// calls that produce them.
var (
	sinkInstr isa.Instr
	sinkInt   int
	sinkBool  bool
)

// replayScale is the bounded window each layer replay works on.
func replayScale(tiny bool) (window, nexts int) {
	if tiny {
		return 5_000, 5_000
	}
	return 200_000, 300_000
}

// captureWindow records the first n instructions of a benchmark's stream
// through trace.Tee.
func captureWindow(bench string, n int) ([]isa.Instr, error) {
	g, err := workload.New(bench)
	if err != nil {
		return nil, err
	}
	tee := trace.NewTee(g)
	for i := 0; i < n; i++ {
		tee.Next()
	}
	return tee.Recorded(), nil
}

// replayLayers reports the workload, mem, predictor, pipeline and engine
// metrics. reps holds one representative spec per engine family; samples
// the timed runs of those families (live spans on steady, direct replays
// elsewhere). Each lower layer is replayed alone on the representative's
// stream and machine, and an engine's self time is its Run time minus the
// replayed cost of the workload, mem and predictor calls that Run made.
func replayLayers(rep *report, reps map[string]sim.RunSpec, samples map[string][]engineSample, tiny bool) error {
	window, nexts := replayScale(tiny)
	windows := map[string][]isa.Instr{}
	nextNs := map[string]float64{}
	var nextTotal time.Duration
	var nextCount int
	for _, a := range engineArchs {
		b := reps[a].Bench
		if _, ok := windows[b]; ok {
			continue
		}
		w, err := captureWindow(b, window)
		if err != nil {
			return err
		}
		windows[b] = w
		g, err := workload.New(b)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < nexts; i++ {
			sinkInstr = g.Next()
		}
		d := time.Since(start)
		nextNs[b] = float64(d) / float64(nexts)
		nextTotal += d
		nextCount += nexts
	}
	rep.set("workload.next_ns", float64(nextTotal)/float64(nextCount))

	accessNs := map[string]float64{}
	branchNs := map[string]float64{}
	var m memTotals
	var p predTotals
	for _, a := range engineArchs {
		spec := reps[a]
		ns, err := m.replay(spec, windows[spec.Bench])
		if err != nil {
			return err
		}
		accessNs[a] = ns
		if branchNs[a], err = p.replay(spec, windows[spec.Bench]); err != nil {
			return err
		}
	}
	m.report(rep)
	p.report(rep)
	replayPipeline(rep, windows[reps[engineArchs[0]].Bench])

	for _, a := range engineArchs {
		ss := samples[a]
		if len(ss) == 0 {
			return fmt.Errorf("no timed %s runs", a)
		}
		var setup, alloc, runNs, perCycle, allocs, self []float64
		for _, s := range ss {
			n := float64(s.instrs)
			setup = append(setup, millis(s.setup))
			ns := float64(s.run) / n
			runNs = append(runNs, ns)
			perCycle = append(perCycle, s.nsPerCycle())
			self = append(self, ns-nextNs[s.spec.Bench]-
				accessNs[a]*float64(s.accesses)/n-
				branchNs[a]*float64(s.lookups)/n)
			if s.counted {
				alloc = append(alloc, float64(s.setupBytes)/1024)
				allocs = append(allocs, float64(s.runAllocs))
			}
		}
		pre := "engine." + a + "."
		rep.set(pre+"setup_ms", median(setup))
		rep.set(pre+"setup_alloc_kb", median(alloc))
		rep.set(pre+"run_ns_per_instr", median(runNs))
		rep.set(pre+"ns_per_cycle", median(perCycle))
		rep.set(pre+"self_ns_per_instr", median(self))
		rep.set(pre+"steady_allocs", median(allocs))
		rep.set(pre+"ipc", ss[0].ipc)
	}
	return nil
}

// replayPasses is how many times each timed replay repeats; the median
// pass is reported.
const replayPasses = 3

// memTotals accumulates the memory-hierarchy replay over several machines.
type memTotals struct {
	time                   time.Duration
	accesses               uint64
	l1Acc, l1Miss          uint64
	l2Acc, l2Miss, memHits uint64
	warm                   []float64
}

// replay warms a fresh hierarchy of the spec's machine and drives every
// load and store of the window through Hierarchy.Access. It returns the
// median host time per access; counts come from the first pass.
func (m *memTotals) replay(spec sim.RunSpec, win []isa.Instr) (float64, error) {
	g, err := workload.New(spec.Bench)
	if err != nil {
		return 0, err
	}
	cfg := spec.NewEngine().Hierarchy().Config()
	ranges := g.WarmRanges()
	var passes []float64
	for pass := 0; pass < replayPasses; pass++ {
		h := mem.NewHierarchy(cfg)
		start := time.Now()
		h.Warm(ranges)
		m.warm = append(m.warm, millis(time.Since(start)))
		start = time.Now()
		for i := range win {
			if win[i].Op.IsMem() {
				sinkInt, _ = h.Access(win[i].Addr)
			}
		}
		passes = append(passes, float64(time.Since(start)))
		if pass > 0 {
			continue
		}
		m.accesses += h.Accesses()
		m.memHits += h.Count[mem.LevelMemory]
		if c := h.L1(); c != nil {
			m.l1Acc += c.Accesses
			m.l1Miss += c.Misses
		}
		if c := h.L2(); c != nil {
			m.l2Acc += c.Accesses
			m.l2Miss += c.Misses
		}
	}
	n := max(1, countMem(win))
	med := median(passes)
	m.time += time.Duration(med)
	return med / float64(n), nil
}

func (m *memTotals) report(rep *report) {
	rep.set("mem.access_ns", float64(m.time)/float64(max(1, m.accesses)))
	rep.set("mem.warm_ms", median(m.warm))
	rep.set("mem.accesses", float64(m.accesses))
	rep.set("mem.l1_miss_rate", ratio(m.l1Miss, m.l1Acc))
	rep.set("mem.l2_miss_rate", ratio(m.l2Miss, m.l2Acc))
	rep.set("mem.memory_frac", ratio(m.memHits, m.accesses))
}

func countMem(win []isa.Instr) int {
	n := 0
	for i := range win {
		if win[i].Op.IsMem() {
			n++
		}
	}
	return n
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// predTotals accumulates the branch-predictor replay.
type predTotals struct {
	time             time.Duration
	lookups, correct uint64
}

// replay trains a fresh engine's predictor on every branch of the window
// through Predict and Update, as the front end does. It returns the median
// host time per branch; accuracy comes from the first pass.
func (p *predTotals) replay(spec sim.RunSpec, win []isa.Instr) (float64, error) {
	var passes []float64
	for pass := 0; pass < replayPasses; pass++ {
		owner, ok := spec.NewEngine().(predictorOwner)
		if !ok {
			return 0, fmt.Errorf("%s: engine does not expose its predictor", spec.Label())
		}
		bp := owner.Predictor()
		start := time.Now()
		for i := range win {
			if win[i].Op == isa.Branch {
				sinkBool = bp.Predict(win[i].PC)
				bp.Update(win[i].PC, win[i].Taken)
			}
		}
		passes = append(passes, float64(time.Since(start)))
		if pass == 0 {
			p.lookups += bp.Lookups
			p.correct += bp.Lookups - bp.Mispredict
		}
	}
	branches := 0
	for i := range win {
		if win[i].Op == isa.Branch {
			branches++
		}
	}
	med := median(passes)
	p.time += time.Duration(med)
	return med / float64(max(1, branches)), nil
}

func (p *predTotals) report(rep *report) {
	rep.set("predictor.ns_per_branch", float64(p.time)/float64(max(1, p.lookups)))
	rep.set("predictor.accuracy", ratio(p.correct, p.lookups))
}

// replayPipeline times the window arena and an out-of-order issue queue on
// the window's instructions: Window.Alloc per instruction, and
// IssueQueue.Insert/Pop with a few dozen instructions resident.
func replayPipeline(rep *report, win []isa.Instr) {
	var allocs, ops []float64
	for pass := 0; pass < replayPasses; pass++ {
		w := pipeline.NewWindow(512)
		start := time.Now()
		for i := range win {
			w.Alloc(uint64(i), win[i], 0)
		}
		allocs = append(allocs, float64(time.Since(start))/float64(len(win)))

		w = pipeline.NewWindow(256)
		q := pipeline.NewIssueQueue(0, 64, false, w)
		n := 0
		start = time.Now()
		for i := range win {
			seq := uint64(i)
			w.Alloc(seq, win[i], 0)
			q.Insert(seq, true)
			n++
			if q.Len() >= 48 {
				_, sinkBool = q.Pop()
				n++
			}
		}
		for q.Len() > 0 {
			_, sinkBool = q.Pop()
			n++
		}
		ops = append(ops, float64(time.Since(start))/float64(n))
	}
	rep.set("pipeline.window_ns_per_alloc", median(allocs))
	rep.set("pipeline.iq_ns_per_op", median(ops))
}
