package sim

import (
	"strings"
	"testing"

	"dkip/internal/core"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
)

func TestKeyDeterministic(t *testing.T) {
	a := DKIPSpec("swim", core.Config{}, 1000, 4000)
	b := DKIPSpec("swim", core.Config{}, 1000, 4000)
	if a.Key() != b.Key() {
		t.Errorf("identical specs hash differently: %s vs %s", a.Key(), b.Key())
	}
	if len(a.Key()) != 32 {
		t.Errorf("key %q not 32 hex chars", a.Key())
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := DKIPSpec("swim", core.Config{}, 1000, 4000)
	variants := map[string]RunSpec{
		"bench":   DKIPSpec("mcf", core.Config{}, 1000, 4000),
		"warmup":  DKIPSpec("swim", core.Config{}, 2000, 4000),
		"measure": DKIPSpec("swim", core.Config{}, 1000, 8000),
		"config":  DKIPSpec("swim", core.Config{LLIBSize: 1024}, 1000, 4000),
		"mem":     DKIPSpec("swim", core.Config{Mem: mem.DefaultConfig().WithL2Size(1 << 20)}, 1000, 4000),
		"arch":    OOOSpec("swim", ooo.R10K64(), 1000, 4000),
		"tag":     {Arch: ArchDKIP, Bench: "swim", Warmup: 1000, Measure: 4000, Tag: "x"},
	}
	for name, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("%s variant hashes equal to base", name)
		}
	}
}

// The Name fields of every config are presentation-only: specs differing
// only in names must dedupe.
func TestKeyIgnoresNames(t *testing.T) {
	a := ooo.R10K256()
	b := ooo.R10K256()
	b.Name = "R10-256@512KB"
	b.Mem = mem.DefaultConfig().WithL2Size(512 << 10) // same geometry, renamed
	sa := OOOSpec("gzip", a, 1000, 4000)
	sb := OOOSpec("gzip", b, 1000, 4000)
	if sa.Key() != sb.Key() {
		t.Error("renamed but identical machine hashes differently")
	}
}

// A zero config and the explicitly spelled-out paper defaults are the same
// machine; normalization must make them hash equal.
func TestKeyNormalizesDefaults(t *testing.T) {
	zero := DKIPSpec("swim", core.Config{}, 1000, 4000)
	spelled := DKIPSpec("swim", core.Config{
		CPIQSize:  40,
		MPIQSize:  20,
		MPInOrder: core.Bool(true),
		LLIBSize:  2048,
		Mem:       mem.DefaultConfig(),
	}, 1000, 4000)
	if zero.Key() != spelled.Key() {
		t.Error("zero config and explicit defaults hash differently")
	}
}

// Figure 9's R10-256 and Figure 11's R10-256@512KB describe the same
// machine on the same workloads — the cross-figure overlap the memo cache
// exists for.
func TestCrossFigureOverlapHashesEqual(t *testing.T) {
	fig9 := OOOSpec("gzip", ooo.R10K256(), 1000, 4000)
	r10 := ooo.R10K256()
	r10.Mem = mem.DefaultConfig().WithL2Size(512 << 10)
	fig11 := OOOSpec("gzip", r10, 1000, 4000)
	if fig9.Key() != fig11.Key() {
		t.Error("fig9 R10-256 and fig11 R10-256@512KB should share one simulation")
	}
}

func TestMemoizable(t *testing.T) {
	if !DKIPSpec("swim", core.Config{}, 1000, 4000).Memoizable() {
		t.Error("plain spec should be memoizable")
	}
	custom := core.Config{NewPredictor: func() predictor.Predictor { return predictor.NewPerceptron(64, 8) }}
	spec := DKIPSpec("swim", custom, 1000, 4000)
	if spec.Memoizable() {
		t.Error("spec with an opaque predictor constructor must not be memoizable untagged")
	}
	spec.Tag = "tiny-perceptron"
	if !spec.Memoizable() {
		t.Error("tag should restore memoizability")
	}
	other := spec
	other.Tag = "other-predictor"
	if spec.Key() == other.Key() {
		t.Error("tags must discriminate keys")
	}
}

func TestValidate(t *testing.T) {
	if err := DKIPSpec("swim", core.Config{}, 1000, 4000).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := DKIPSpec("no-such-bench", core.Config{}, 1000, 4000).Validate(); err == nil {
		t.Error("unknown benchmark accepted")
	} else if !strings.Contains(err.Error(), "no-such-bench") {
		t.Errorf("error does not name the benchmark: %v", err)
	}
	if err := DKIPSpec("swim", core.Config{}, 1000, 0).Validate(); err == nil {
		t.Error("zero measure accepted")
	}
	if err := OOOSpec("swim", ooo.Config{}, 1000, 4000).Validate(); err == nil {
		t.Error("ooo config without a ROB size accepted")
	}
	// An unregistered Arch is rejected by name before its machine is read,
	// whether or not the configuration it carries would validate.
	for _, cfg := range []ooo.Config{ooo.R10K64(), {}} {
		spec := RunSpec{Arch: Arch(7), OOO: cfg, Bench: "swim", Measure: 1000}
		if err := spec.Validate(); err == nil || err.Error() != "sim: unregistered arch arch(7)" {
			t.Errorf("unregistered arch with %q config: err = %v, want sim: unregistered arch arch(7)", cfg.Name, err)
		}
	}
}

func TestConfigNameAndLabel(t *testing.T) {
	if got := DKIPSpec("swim", core.Config{}, 1, 1).ConfigName(); got != "DKIP-2048" {
		t.Errorf("ConfigName = %q, want DKIP-2048", got)
	}
	if got := OOOSpec("mcf", ooo.KILO1024(), 1, 1).Label(); got != "KILO-1024/mcf" {
		t.Errorf("Label = %q", got)
	}
	if got := ArchDKIP.String(); got != "dkip" {
		t.Errorf("ArchDKIP = %q", got)
	}
}

// RunSpec.Mem exposes the defaulted memory configuration of whichever engine
// the spec selects: reading it leaves the content key alone, and a field
// written through it is the field the key hashes.
func TestMemOverridesThroughRegistry(t *testing.T) {
	for _, name := range PresetNames() {
		spec := MustPresetSpec(name, "swim", 1000, 4000)
		before := spec.Key()
		m := spec.Mem()
		if spec.Key() != before || !spec.Portable() {
			t.Errorf("%s: reading Mem changed the spec", name)
		}
		if m.L1Latency == 0 || m.L1Assoc == 0 {
			t.Errorf("%s: Mem = %+v, want defaults applied", name, *m)
		}
		m.MemLatency++
		if spec.Key() == before {
			t.Errorf("%s: a MemLatency override did not reach the key", name)
		}
	}
	c920 := MustPresetSpec("inorder", "swim", 1, 1)
	if got := c920.Mem().L2Size; got != 1<<20 {
		t.Errorf("inorder preset L2 = %d, want its own 1 MiB", got)
	}
}
