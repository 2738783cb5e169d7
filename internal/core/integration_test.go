package core

import (
	"testing"

	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/pipeline"
	"dkip/internal/workload"
)

// archIPC runs one architecture over a suite; dkip selects the D-KIP,
// otherwise the provided ooo config is used.
func archIPC(t *testing.T, suite workload.Suite, dkip *Config, oc *ooo.Config) float64 {
	t.Helper()
	names := workload.SuiteNames(suite)
	var sum float64
	for _, name := range names {
		g := workload.MustNew(name)
		var st *pipeline.Stats
		if dkip != nil {
			p := New(*dkip)
			p.Hierarchy().Warm(g.WarmRanges())
			st = p.Run(g, 8000, 30000)
		} else {
			p := ooo.New(*oc)
			p.Hierarchy().Warm(g.WarmRanges())
			st = p.Run(g, 8000, 30000)
		}
		sum += st.IPC()
	}
	return sum / float64(len(names))
}

// TestFigure9Orderings asserts the headline result's orderings: dramatic
// D-KIP gains on SpecFP over both R10 baselines, D-KIP ahead of KILO-1024 on
// SpecFP, and a near-tie on SpecINT.
func TestFigure9Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	r64 := ooo.R10K64()
	r256 := ooo.R10K256()
	k := ooo.KILO1024()
	d := Config{}

	dkipFP := archIPC(t, workload.SpecFP, &d, nil)
	r64FP := archIPC(t, workload.SpecFP, nil, &r64)
	r256FP := archIPC(t, workload.SpecFP, nil, &r256)
	kiloFP := archIPC(t, workload.SpecFP, nil, &k)

	if dkipFP < 2*r64FP {
		t.Errorf("D-KIP FP (%.3f) should be at least 2x R10-64 (%.3f); paper: 1.88x", dkipFP, r64FP)
	}
	if dkipFP < 1.3*r256FP {
		t.Errorf("D-KIP FP (%.3f) should clearly beat R10-256 (%.3f); paper: 1.40x", dkipFP, r256FP)
	}
	if dkipFP <= kiloFP {
		t.Errorf("D-KIP FP (%.3f) should edge out KILO-1024 (%.3f); paper: 2.37 vs 2.23", dkipFP, kiloFP)
	}
	if r256FP <= r64FP {
		t.Errorf("R10-256 (%.3f) should beat R10-64 (%.3f)", r256FP, r64FP)
	}

	dkipINT := archIPC(t, workload.SpecINT, &d, nil)
	kiloINT := archIPC(t, workload.SpecINT, nil, &k)
	r64INT := archIPC(t, workload.SpecINT, nil, &r64)
	if dkipINT < r64INT {
		t.Errorf("D-KIP INT (%.3f) should not lose to R10-64 (%.3f)", dkipINT, r64INT)
	}
	// The paper has KILO 4% ahead on SpecINT; we accept a near-tie in
	// either direction (see EXPERIMENTS.md).
	if ratio := dkipINT / kiloINT; ratio < 0.85 || ratio > 1.20 {
		t.Errorf("D-KIP INT (%.3f) and KILO INT (%.3f) should be a near-tie", dkipINT, kiloINT)
	}
	// The INT gains must be visibly smaller than the FP gains.
	if (dkipINT/r64INT)*1.2 > dkipFP/r64FP {
		t.Errorf("FP speedup (%.2fx) should far exceed INT speedup (%.2fx)",
			dkipFP/r64FP, dkipINT/r64INT)
	}
}

// TestChasePrefersSLIQ: on mcf, the KILO's out-of-order slow lane must beat
// the D-KIP's FIFO LLIBs — the paper's explanation for the SpecINT gap.
func TestChasePrefersSLIQ(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	g := workload.MustNew("mcf")
	pk := ooo.New(ooo.KILO1024())
	pk.Hierarchy().Warm(g.WarmRanges())
	kiloIPC := pk.Run(g, 8000, 30000).IPC()

	g = workload.MustNew("mcf")
	pd := New(Config{})
	pd.Hierarchy().Warm(g.WarmRanges())
	dkipIPC := pd.Run(g, 8000, 30000).IPC()

	if kiloIPC <= dkipIPC {
		t.Errorf("on mcf the SLIQ (%.3f) should beat the FIFO LLIB (%.3f)", kiloIPC, dkipIPC)
	}
}

// TestCPShareMatchesPaper: §4.4 reports the Cache Processor committing
// 67–77% of SpecFP instructions depending on cache size.
func TestCPShareMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	var share float64
	names := workload.SuiteNames(workload.SpecFP)
	for _, name := range names {
		g := workload.MustNew(name)
		p := New(Config{})
		p.Hierarchy().Warm(g.WarmRanges())
		share += p.Run(g, 8000, 30000).CPFraction()
	}
	share /= float64(len(names))
	if share < 0.55 || share > 0.95 {
		t.Errorf("CP share %.2f outside the plausible band around the paper's 67-77%%", share)
	}
}

// TestCacheInsensitivity: Figures 11/12 and §4.4 — growing the L2 from 64KB
// to 4MB speeds the R10-256 up far more than the D-KIP on SpecFP.
func TestCacheInsensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	sweep := func(dkip bool, l2 int) float64 {
		mc := mem.DefaultConfig().WithL2Size(l2)
		names := workload.SuiteNames(workload.SpecFP)
		var sum float64
		for _, name := range names {
			g := workload.MustNew(name)
			var ipc float64
			if dkip {
				p := New(Config{Mem: mc})
				p.Hierarchy().Warm(g.WarmRanges())
				ipc = p.Run(g, 8000, 25000).IPC()
			} else {
				cfg := ooo.R10K256()
				cfg.Mem = mc
				p := ooo.New(cfg)
				p.Hierarchy().Warm(g.WarmRanges())
				ipc = p.Run(g, 8000, 25000).IPC()
			}
			sum += ipc
		}
		return sum / float64(len(names))
	}
	dkipGain := sweep(true, 4<<20) / sweep(true, 64<<10)
	baseGain := sweep(false, 4<<20) / sweep(false, 64<<10)
	if dkipGain >= baseGain {
		t.Errorf("D-KIP cache sensitivity (%.2fx) should be below R10-256's (%.2fx); paper: 1.18 vs 1.55",
			dkipGain, baseGain)
	}
}

// TestLLIBOccupancyShape: Figures 13/14 — integer benchmarks with load
// chains push the integer LLIB far higher than FP benchmarks push theirs,
// and register usage stays below instruction occupancy.
func TestLLIBOccupancyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	occupancy := func(name string, idx int) (instrs, regs int) {
		g := workload.MustNew(name)
		p := New(Config{})
		p.Hierarchy().Warm(g.WarmRanges())
		st := p.Run(g, 8000, 40000)
		return st.MaxLLIBInstrs[idx], st.MaxLLIBRegs[idx]
	}
	mcfI, mcfR := occupancy("mcf", 0)
	if mcfI < 200 {
		t.Errorf("mcf integer LLIB max %d; expected heavy occupancy", mcfI)
	}
	if mcfR >= mcfI {
		t.Errorf("registers (%d) should be fewer than instructions (%d)", mcfR, mcfI)
	}
	gzipI, _ := occupancy("gzip", 0)
	if gzipI > 64 {
		t.Errorf("gzip integer LLIB max %d; cache-resident code should barely use it", gzipI)
	}
}
