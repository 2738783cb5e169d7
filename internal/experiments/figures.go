package experiments

import (
	"fmt"

	"dkip/internal/core"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// WindowSizes are the instruction-window sizes of Figures 1 and 2.
var WindowSizes = []int{32, 48, 64, 128, 256, 512, 1024, 2048, 4096}

// windowSweep produces Figure 1 (SpecINT) or Figure 2 (SpecFP): average IPC
// of a ROB-limited 4-way core for each memory subsystem of Table 1 across
// window sizes.
func windowSweep(r sim.Backend, suite workload.Suite, s Scale) *Table {
	mems := mem.Table1Configs()
	var jobs []job
	for _, mc := range mems {
		for _, w := range WindowSizes {
			prefix := fmt.Sprintf("%s/%d", mc.Name, w)
			for _, b := range workload.SuiteNames(suite) {
				jobs = append(jobs, run(prefix+"/"+b, sim.OOOSpec(b, ooo.LimitCore(w, mc), s.Warmup, s.Measure), s))
			}
		}
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"window"}}
	for _, mc := range mems {
		t.Columns = append(t.Columns, mc.Name)
	}
	for _, w := range WindowSizes {
		row := []string{fmt.Sprintf("%d", w)}
		for _, mc := range mems {
			row = append(row, f3(suiteMean(res, fmt.Sprintf("%s/%d", mc.Name, w), suite)))
		}
		t.Rows = append(t.Rows, row)
	}
	if suite == workload.SpecFP {
		t.Notes = append(t.Notes,
			"paper: with a 4K-entry window almost all configurations recover to the perfect-L1 level",
			"paper: load misses leave the critical path on SpecFP once enough instructions are in flight")
	} else {
		t.Notes = append(t.Notes,
			"paper: for SpecINT large windows help far less — pointer chasing and mispredictions",
			"dependent on uncached data keep long-latency loads on the critical path")
	}
	return t
}

// Figure1 reproduces the SpecINT memory-wall limit study.
func Figure1(r sim.Backend, s Scale) *Table { return windowSweep(r, workload.SpecINT, s) }

// Figure2 reproduces the SpecFP memory-wall limit study.
func Figure2(r sim.Backend, s Scale) *Table { return windowSweep(r, workload.SpecFP, s) }

// Figure3 reproduces the decode→issue distance histogram: SpecFP on an
// effectively unconstrained window with 400-cycle memory. The paper reports
// ~70% of instructions issuing within 300 cycles, ~11% near 400 (one miss)
// and ~4% near 800 (a chain of two misses).
func Figure3(r sim.Backend, s Scale) *Table {
	var jobs []job
	for _, b := range workload.SuiteNames(workload.SpecFP) {
		jobs = append(jobs, run("u/"+b, sim.OOOSpec(b, ooo.LimitCore(4096, mem.DefaultConfig()), s.Warmup, s.Measure), s))
	}
	res := runAll(r, jobs)

	// Aggregate the histograms over the suite.
	var agg pipeline.Histogram
	for _, st := range res {
		for i, n := range st.IssueLat.Buckets {
			agg.Buckets[i] += n
			agg.Total += n
		}
		agg.SumCycles += st.IssueLat.SumCycles
	}
	t := &Table{Columns: []string{"decode->issue (cycles)", "% instructions"}}
	for i := range agg.Buckets {
		lo := i * pipeline.HistBucket
		if agg.Buckets[i] == 0 {
			continue
		}
		label := fmt.Sprintf("%d-%d", lo, lo+pipeline.HistBucket)
		if i == len(agg.Buckets)-1 {
			label = fmt.Sprintf(">=%d", lo)
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%.2f", 100*agg.Frac(i))})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mass <300 cycles: %.1f%% (paper ~70%%)", 100*agg.FracRange(0, 300)),
		fmt.Sprintf("mass 300-500 cycles (one miss): %.1f%% (paper ~11%% near 400)", 100*agg.FracRange(300, 500)),
		fmt.Sprintf("mass 700-900 cycles (two-miss chains): %.1f%% (paper ~4%% near 800)", 100*agg.FracRange(700, 900)),
		fmt.Sprintf("mean distance: %.0f cycles", agg.Mean()))
	return t
}

// fig9Configs returns the four architectures compared in Figure 9.
func fig9Configs() []struct {
	name string
	mk   func(bench string, s Scale) job
} {
	return []struct {
		name string
		mk   func(bench string, s Scale) job
	}{
		{"R10-64", func(b string, s Scale) job {
			return run("R10-64/"+b, sim.OOOSpec(b, ooo.R10K64(), s.Warmup, s.Measure), s)
		}},
		{"R10-256", func(b string, s Scale) job {
			return run("R10-256/"+b, sim.OOOSpec(b, ooo.R10K256(), s.Warmup, s.Measure), s)
		}},
		{"KILO-1024", func(b string, s Scale) job {
			return run("KILO-1024/"+b, sim.OOOSpec(b, ooo.KILO1024(), s.Warmup, s.Measure), s)
		}},
		{"DKIP-2048", func(b string, s Scale) job {
			return run("DKIP-2048/"+b, sim.DKIPSpec(b, core.Config{}, s.Warmup, s.Measure), s)
		}},
	}
}

// Figure9 reproduces the headline comparison: R10-64, R10-256, KILO-1024 and
// D-KIP-2048 average IPC on each suite.
func Figure9(r sim.Backend, s Scale) *Table {
	var jobs []job
	for _, a := range fig9Configs() {
		for _, b := range workload.Names() {
			jobs = append(jobs, a.mk(b, s))
		}
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"architecture", "SpecINT", "SpecFP"}}
	type pair struct{ intIPC, fpIPC float64 }
	vals := map[string]pair{}
	for _, a := range fig9Configs() {
		pi := suiteMean(res, a.name, workload.SpecINT)
		pf := suiteMean(res, a.name, workload.SpecFP)
		vals[a.name] = pair{pi, pf}
		t.Rows = append(t.Rows, []string{a.name, f3(pi), f3(pf)})
	}
	t.Notes = append(t.Notes,
		"paper: SpecINT 1.19 / 1.32 / 1.38 / 1.33; SpecFP 1.26 / 1.71 / 2.23 / 2.37",
		fmt.Sprintf("D-KIP vs R10-64 SpecFP speedup: %.2fx (paper 1.88x)", vals["DKIP-2048"].fpIPC/vals["R10-64"].fpIPC),
		fmt.Sprintf("D-KIP vs R10-256 SpecFP speedup: %.2fx (paper 1.40x)", vals["DKIP-2048"].fpIPC/vals["R10-256"].fpIPC))
	return t
}

// CPConfig/MPConfig describe the Figure 10 design points.
type schedPoint struct {
	label   string
	inOrder bool
	size    int
}

var cpPoints = []schedPoint{
	{"INO", true, 40},
	{"OOO-20", false, 20},
	{"OOO-40", false, 40},
	{"OOO-60", false, 60},
	{"OOO-80", false, 80},
}

var mpPoints = []schedPoint{
	{"MP-INO", true, 20},
	{"MP-OOO-20", false, 20},
	{"MP-OOO-40", false, 40},
}

func dkipSched(cp, mp schedPoint) core.Config {
	return core.Config{
		Name:      fmt.Sprintf("%s/%s", cp.label, mp.label),
		CPInOrder: cp.inOrder, CPIQSize: cp.size,
		MPInOrder: core.Bool(mp.inOrder), MPIQSize: mp.size,
	}
}

// Figure10 reproduces the scheduling-policy and queue-size study on SpecFP:
// CP ∈ {in-order, OoO-20/40/60/80} × MP ∈ {in-order, OoO-20, OoO-40}.
func Figure10(r sim.Backend, s Scale) *Table {
	var jobs []job
	for _, cp := range cpPoints {
		for _, mp := range mpPoints {
			cfg := dkipSched(cp, mp)
			for _, b := range workload.SuiteNames(workload.SpecFP) {
				jobs = append(jobs, run(cfg.Name+"/"+b, sim.DKIPSpec(b, cfg, s.Warmup, s.Measure), s))
			}
		}
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"CP config"}}
	for _, mp := range mpPoints {
		t.Columns = append(t.Columns, mp.label)
	}
	grid := map[string]float64{}
	for _, cp := range cpPoints {
		row := []string{cp.label}
		for _, mp := range mpPoints {
			v := suiteMean(res, fmt.Sprintf("%s/%s", cp.label, mp.label), workload.SpecFP)
			grid[cp.label+"/"+mp.label] = v
			row = append(row, f3(v))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("OoO-40 CP vs in-order CP (in-order MP): +%.0f%% (paper ~32%%)",
			100*(grid["OOO-40/MP-INO"]/grid["INO/MP-INO"]-1)),
		fmt.Sprintf("OoO-80 CP vs OoO-20 CP (in-order MP): +%.0f%% (paper ~13%%)",
			100*(grid["OOO-80/MP-INO"]/grid["OOO-20/MP-INO"]-1)),
		fmt.Sprintf("OoO-40 MP vs in-order MP at OoO-80 CP: +%.1f%% (paper ~6.3%%)",
			100*(grid["OOO-80/MP-OOO-40"]/grid["OOO-80/MP-INO"]-1)),
		fmt.Sprintf("OoO-40 MP vs in-order MP at in-order CP: +%.1f%% (paper ~1%%)",
			100*(grid["INO/MP-OOO-40"]/grid["INO/MP-INO"]-1)))
	return t
}

// L2Sizes are the cache capacities of Figures 11 and 12.
var L2Sizes = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}

// cacheSweepConfigs are the architecture points of Figures 11/12.
func cacheSweepConfigs(l2 int) []struct {
	name string
	mk   func(b string, s Scale) job
} {
	m := mem.DefaultConfig().WithL2Size(l2)
	suffix := fmt.Sprintf("@%dKB", l2>>10)
	dk := func(name string, cp, mp schedPoint) struct {
		name string
		mk   func(b string, s Scale) job
	} {
		cfg := dkipSched(cp, mp)
		cfg.Mem = m
		cfg.Name = name
		return struct {
			name string
			mk   func(b string, s Scale) job
		}{name, func(b string, s Scale) job {
			return run(name+suffix+"/"+b, sim.DKIPSpec(b, cfg, s.Warmup, s.Measure), s)
		}}
	}
	r10 := ooo.R10K256()
	r10.Mem = m
	return []struct {
		name string
		mk   func(b string, s Scale) job
	}{
		{"R10-256", func(b string, s Scale) job {
			return run("R10-256"+suffix+"/"+b, sim.OOOSpec(b, r10, s.Warmup, s.Measure), s)
		}},
		dk("INO-INO", cpPoints[0], mpPoints[0]),
		dk("OOO20-INO", cpPoints[1], mpPoints[0]),
		dk("OOO80-INO", cpPoints[4], mpPoints[0]),
		dk("OOO80-OOO40", cpPoints[4], mpPoints[2]),
	}
}

func cacheSweep(r sim.Backend, suite workload.Suite, s Scale) *Table {
	var jobs []job
	for _, l2 := range L2Sizes {
		for _, a := range cacheSweepConfigs(l2) {
			for _, b := range workload.SuiteNames(suite) {
				jobs = append(jobs, a.mk(b, s))
			}
		}
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"config"}}
	for _, l2 := range L2Sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dKB", l2>>10))
	}
	names := []string{"R10-256", "INO-INO", "OOO20-INO", "OOO80-INO", "OOO80-OOO40"}
	speedup := map[string]float64{}
	for _, name := range names {
		row := []string{name}
		var first, last float64
		for i, l2 := range L2Sizes {
			v := suiteMean(res, fmt.Sprintf("%s@%dKB", name, l2>>10), suite)
			if i == 0 {
				first = v
			}
			last = v
			row = append(row, f3(v))
		}
		speedup[name] = last / first
		t.Rows = append(t.Rows, row)
	}
	if suite == workload.SpecFP {
		t.Notes = append(t.Notes,
			fmt.Sprintf("total 64KB->4MB speedup: R10-256 %.2fx (paper 1.55x), OOO80-OOO40 D-KIP %.2fx (paper 1.18x)",
				speedup["R10-256"], speedup["OOO80-OOO40"]),
			"paper: the D-KIP's ability to process long-latency slices without stalling makes it cache-size tolerant on numerical codes")
	} else {
		t.Notes = append(t.Notes,
			"paper: on SpecINT every doubling of the L2 gives a roughly linear IPC gain, as on a conventional core")
	}
	return t
}

// Figure11 reproduces the SpecINT L2-size sensitivity study.
func Figure11(r sim.Backend, s Scale) *Table { return cacheSweep(r, workload.SpecINT, s) }

// Figure12 reproduces the SpecFP L2-size sensitivity study.
func Figure12(r sim.Backend, s Scale) *Table { return cacheSweep(r, workload.SpecFP, s) }

// llibOccupancy produces Figures 13/14: per-benchmark maxima of simultaneous
// instructions and registers in the suite's LLIB on the default D-KIP.
func llibOccupancy(r sim.Backend, suite workload.Suite, s Scale) *Table {
	var jobs []job
	for _, b := range workload.SuiteNames(suite) {
		jobs = append(jobs, run("d/"+b, sim.DKIPSpec(b, core.Config{}, s.Warmup, s.Measure), s))
	}
	res := runAll(r, jobs)

	idx := 0 // integer LLIB for SpecINT benchmarks
	if suite == workload.SpecFP {
		idx = 1 // FP LLIB for SpecFP benchmarks
	}
	t := &Table{Columns: []string{"benchmark", "max instructions", "max registers", "LLIB-full stall cycles"}}
	full := 0
	for _, b := range workload.SuiteNames(suite) {
		st := res["d/"+b]
		if st.LLIBFullStalls > 0 {
			full++
		}
		t.Rows = append(t.Rows, []string{
			b,
			fmt.Sprintf("%d", st.MaxLLIBInstrs[idx]),
			fmt.Sprintf("%d", st.MaxLLIBRegs[idx]),
			fmt.Sprintf("%d", st.LLIBFullStalls),
		})
	}
	if suite == workload.SpecINT {
		t.Notes = append(t.Notes,
			fmt.Sprintf("benchmarks with LLIB fill-up stalls: %d (paper: 4, from large irregular load chains)", full))
	} else {
		t.Notes = append(t.Notes,
			fmt.Sprintf("benchmarks with LLIB fill-up stalls: %d (paper: none on SpecFP)", full))
	}
	t.Notes = append(t.Notes,
		"paper: registers needed are far fewer than instructions; ~1000 LLRF entries would suffice, average below 500")
	return t
}

// Figure13 reproduces the SpecINT LLIB occupancy maxima.
func Figure13(r sim.Backend, s Scale) *Table { return llibOccupancy(r, workload.SpecINT, s) }

// Figure14 reproduces the SpecFP LLIB occupancy maxima.
func Figure14(r sim.Backend, s Scale) *Table { return llibOccupancy(r, workload.SpecFP, s) }
