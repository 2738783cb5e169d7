package ooo

import (
	"testing"

	"dkip/internal/mem"
	"dkip/internal/workload"
)

// suiteIPC runs the limit core at the given window/memory over a suite and
// returns the average IPC, mirroring Figures 1 and 2.
func suiteIPC(t *testing.T, suite workload.Suite, window int, mc mem.Config) float64 {
	t.Helper()
	var sum float64
	names := workload.SuiteNames(suite)
	for _, name := range names {
		g := workload.MustNew(name)
		p := New(LimitCore(window, mc))
		p.Hierarchy().Warm(g.WarmRanges())
		sum += p.Run(g, 8000, 30000).IPC()
	}
	return sum / float64(len(names))
}

// TestFigure2Shape asserts the paper's central motivating result: on SpecFP
// with 400-cycle memory, scaling the window from 32 to 4096 recovers most of
// the lost IPC, approaching the perfect-L1 level.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	mem400 := mem.Table1Configs()[4]
	perfect := mem.Table1Configs()[0]

	small := suiteIPC(t, workload.SpecFP, 32, mem400)
	big := suiteIPC(t, workload.SpecFP, 4096, mem400)
	ceiling := suiteIPC(t, workload.SpecFP, 4096, perfect)

	if big < 3.5*small {
		t.Errorf("SpecFP window scaling too weak: %.3f -> %.3f", small, big)
	}
	if big < 0.80*ceiling {
		t.Errorf("SpecFP at 4K window (%.3f) should approach the perfect-L1 level (%.3f)", big, ceiling)
	}
}

// TestFigure1Shape asserts the integer counterpart: large windows help
// SpecINT much less (pointer chains and load-dependent mispredictions).
func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	mem400 := mem.Table1Configs()[4]
	perfect := mem.Table1Configs()[0]

	big := suiteIPC(t, workload.SpecINT, 4096, mem400)
	ceiling := suiteIPC(t, workload.SpecINT, 4096, perfect)
	if big > 0.85*ceiling {
		t.Errorf("SpecINT at 4K window (%.3f) recovered too much of the perfect-L1 level (%.3f)", big, ceiling)
	}
	smallFP := suiteIPC(t, workload.SpecFP, 32, mem400)
	smallINT := suiteIPC(t, workload.SpecINT, 32, mem400)
	if smallINT < smallFP {
		t.Errorf("at tiny windows SpecINT (%.3f) should hold up better than SpecFP (%.3f)", smallINT, smallFP)
	}
}

// TestWindowMonotonicity: IPC must not decrease as the window grows.
func TestWindowMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	mc := mem.Table1Configs()[4]
	prev := 0.0
	for _, w := range []int{32, 128, 512, 2048} {
		v := suiteIPC(t, workload.SpecFP, w, mc)
		if v < prev*0.97 { // allow tiny noise
			t.Errorf("IPC decreased when window grew to %d: %.3f -> %.3f", w, prev, v)
		}
		prev = v
	}
}

// TestBenchmarkCharacters spot-checks that individual workloads behave in
// character on the R10-256 baseline.
func TestBenchmarkCharacters(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	run := func(name string) (ipc, memFrac float64) {
		g := workload.MustNew(name)
		p := New(R10K256())
		p.Hierarchy().Warm(g.WarmRanges())
		st := p.Run(g, 8000, 30000)
		return st.IPC(), st.MemoryLoadFrac()
	}
	gzipIPC, gzipMem := run("gzip")
	if gzipMem > 0.01 {
		t.Errorf("gzip should be cache-resident, %.1f%% loads to memory", 100*gzipMem)
	}
	if gzipIPC < 1.5 {
		t.Errorf("gzip IPC %.3f too low for a cache-resident code", gzipIPC)
	}
	mcfIPC, mcfMem := run("mcf")
	if mcfMem < 0.05 {
		t.Errorf("mcf should be memory-bound, %.1f%% loads to memory", 100*mcfMem)
	}
	if mcfIPC > 0.6 {
		t.Errorf("mcf IPC %.3f too high for a pointer-chasing code", mcfIPC)
	}
	if gzipIPC < 3*mcfIPC {
		t.Errorf("gzip (%.3f) and mcf (%.3f) should differ sharply", gzipIPC, mcfIPC)
	}
}

func TestConfig1024(t *testing.T) {
	c := KILO1024()
	if c.ROBSize != 64 {
		t.Errorf("pseudo-ROB = %d, want 64", c.ROBSize)
	}
	if c.IQSize != 72 {
		t.Errorf("issue queues = %d, want 72", c.IQSize)
	}
	if c.SLIQSize != 1024 {
		t.Errorf("SLIQ = %d, want 1024", c.SLIQSize)
	}
	if c.LSQSize != 512 {
		t.Errorf("LSQ = %d, want 512", c.LSQSize)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestKILOBeatsSmallWindowOnMLP(t *testing.T) {
	// On a streaming FP workload with independent misses, KILO-1024's
	// virtual window must decisively beat the R10-64 it is built from.
	run := func(cfg Config) float64 {
		g := workload.MustNew("applu")
		p := New(cfg)
		p.Hierarchy().Warm(g.WarmRanges())
		return p.Run(g, 10000, 40000).IPC()
	}
	kilo := run(KILO1024())
	base := run(R10K64())
	if kilo < 2*base {
		t.Errorf("KILO-1024 (%.3f) should far exceed R10-64 (%.3f) on streaming FP", kilo, base)
	}
}
