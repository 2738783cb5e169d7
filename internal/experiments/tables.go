package experiments

import (
	"fmt"

	"dkip/internal/core"
	"dkip/internal/mem"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

// Table1 renders (and validates) the six memory subsystems of the limit
// study exactly as the paper's Table 1 lists them.
func Table1(sim.Backend, Scale) *Table {
	t := &Table{Columns: []string{"config", "L1 access", "L1 size", "L2 access", "L2 size", "memory access"}}
	for _, c := range mem.Table1Configs() {
		if err := c.Validate(); err != nil {
			panic(err)
		}
		sz := func(b int) string {
			if b == 0 {
				return "inf"
			}
			return fmt.Sprintf("%dKB", b>>10)
		}
		lat := func(l int) string {
			if l == 0 {
				return "-"
			}
			return fmt.Sprintf("%d", l)
		}
		l2sz := "-"
		if c.L2Latency > 0 {
			l2sz = sz(c.L2Size)
		}
		t.Rows = append(t.Rows, []string{
			c.Name, lat(c.L1Latency), sz(c.L1Size), lat(c.L2Latency), l2sz, lat(c.MemLatency),
		})
	}
	t.Notes = append(t.Notes, "access times in processor clock cycles; inf = perfect (infinite) cache level")
	return t
}

// Table2 renders the invariant architectural parameters from the effective
// default configuration, confirming the code matches the paper's Table 2.
func Table2(sim.Backend, Scale) *Table {
	c := core.DefaultConfig()
	t := &Table{Columns: []string{"parameter", "value", "paper"}}
	add := func(name string, v, paper interface{}) {
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(v), fmt.Sprint(paper)})
	}
	add("Fetch/Decode/Analyze width", c.FetchWidth, 4)
	add("Branch predictor", "perceptron", "perceptron")
	add("ROB timer (cycles)", c.ROBTimer, 16)
	add("ROB capacity", c.ROBSize, 64)
	add("CP ALU units", c.CPFU.ALU, 4)
	add("CP integer multipliers", c.CPFU.IntMul, 1)
	add("CP FP adders", c.CPFU.FPAdd, 4)
	add("CP FP multipliers/divisors", c.CPFU.FPMulDiv, 1)
	add("LLIB entries (each)", c.LLIBSize, 2048)
	add("LLIB insertion/extraction rate", c.LLIBRate, 4)
	add("LLRF banks", c.LLRFBanks, 8)
	add("LLRF registers per bank (max)", c.LLRFBankSize, 256)
	add("MP decode width", c.MPIssueWidth, 4)
	add("LSQ entries", c.LSQSize, 512)
	add("Memory ports (global R/W)", c.MemPorts, 2)
	add("L1 size", fmt.Sprintf("%dKB", c.Mem.L1Size>>10), "32KB")
	add("L1 hit latency", c.Mem.L1Latency, "2 (1+1)")
	add("L2 hit latency", c.Mem.L2Latency, "11 (1+10)")
	add("Memory access latency", c.Mem.MemLatency, 400)
	return t
}

// Table3 renders the variable-parameter defaults (paper Table 3).
func Table3(sim.Backend, Scale) *Table {
	c := core.DefaultConfig()
	t := &Table{Columns: []string{"parameter", "value", "paper"}}
	add := func(name string, v, paper interface{}) {
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(v), fmt.Sprint(paper)})
	}
	sched := func(in bool) string {
		if in {
			return "In-Order"
		}
		return "Out-of-Order"
	}
	add("L2 cache size", fmt.Sprintf("%dKB", c.Mem.L2Size>>10), "512KB")
	add("CP integer queue size", c.CPIQSize, 40)
	add("CP FP queue size", c.CPIQSize, 40)
	add("CP scheduler", sched(c.CPInOrder), "Out-of-Order")
	add("MP integer queue size", c.MPIQSize, 20)
	add("MP FP queue size", c.MPIQSize, 20)
	add("MP scheduler", sched(*c.MPInOrder), "In-Order")
	return t
}

// Section43 summarizes the scheduler findings of §4.3 for both suites:
// out-of-order vs in-order Cache Processor, Memory Processor sensitivity,
// and the share of instructions the MP processes on integer codes.
func Section43(r sim.Backend, s Scale) *Table {
	configs := []core.Config{
		dkipSched(cpPoints[0], mpPoints[0]), // INO / MP-INO
		dkipSched(cpPoints[2], mpPoints[0]), // OOO-40 / MP-INO
		dkipSched(cpPoints[0], mpPoints[2]), // INO / MP-OOO-40
		dkipSched(cpPoints[2], mpPoints[2]), // OOO-40 / MP-OOO-40
	}
	var jobs []job
	for _, cfg := range configs {
		for _, b := range workload.Names() {
			jobs = append(jobs, run(cfg.Name+"/"+b, sim.DKIPSpec(b, cfg, s.Warmup, s.Measure), s))
		}
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"metric", "SpecINT", "SpecFP", "paper"}}
	get := func(cfg core.Config, suite workload.Suite) float64 {
		return suiteMean(res, cfg.Name, suite)
	}
	oooGain := func(suite workload.Suite) float64 {
		return 100 * (get(configs[1], suite)/get(configs[0], suite) - 1)
	}
	mpGain := func(suite workload.Suite) float64 {
		return 100 * (get(configs[3], suite)/get(configs[1], suite) - 1)
	}
	t.Rows = append(t.Rows,
		[]string{"OoO CP vs in-order CP (%)", f1(oooGain(workload.SpecINT)), f1(oooGain(workload.SpecFP)), "29 / 32"},
		[]string{"OoO-40 MP vs in-order MP at OoO CP (%)", f1(mpGain(workload.SpecINT)), f1(mpGain(workload.SpecFP)), "~0 / up to 6.3"},
	)
	// MP instruction share on integer codes (paper: ~5%).
	var mpShare float64
	names := workload.SuiteNames(workload.SpecINT)
	for _, b := range names {
		st := res[configs[3].Name+"/"+b]
		mpShare += 100 * (1 - st.CPFraction())
	}
	mpShare /= float64(len(names))
	t.Rows = append(t.Rows, []string{"MP share of committed instructions (%)", f1(mpShare), "-", "~5 (SpecINT)"})
	return t
}

// Section44 measures the Cache Processor's share of committed instructions
// as the L2 grows, on SpecFP (paper: 67% at 64KB to 77% at 4MB for the
// OOO-80/OOO-40 configuration).
func Section44(r sim.Backend, s Scale) *Table {
	sizes := []int{64 << 10, 512 << 10, 4 << 20}
	var jobs []job
	for _, l2 := range sizes {
		cfg := dkipSched(cpPoints[4], mpPoints[2]) // OOO-80 / MP-OOO-40
		cfg.Mem = mem.DefaultConfig().WithL2Size(l2)
		cfg.Name = fmt.Sprintf("dkip@%dKB", l2>>10)
		for _, b := range workload.SuiteNames(workload.SpecFP) {
			jobs = append(jobs, run(cfg.Name+"/"+b, sim.DKIPSpec(b, cfg, s.Warmup, s.Measure), s))
		}
	}
	res := runAll(r, jobs)

	t := &Table{Columns: []string{"L2 size", "CP share of committed instructions (%)"}}
	for _, l2 := range sizes {
		var share float64
		names := workload.SuiteNames(workload.SpecFP)
		for _, b := range names {
			share += 100 * res[fmt.Sprintf("dkip@%dKB/%s", l2>>10, b)].CPFraction()
		}
		share /= float64(len(names))
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%dKB", l2>>10), f1(share)})
	}
	t.Notes = append(t.Notes, "paper: 67% at 64KB rising to 77% at 4MB — the CP retains most of the stream even with a tiny cache")
	return t
}
