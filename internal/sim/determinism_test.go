package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"dkip/internal/core"
	"dkip/internal/ooo"
)

// Back-to-back runs of the same seed/config/workload must produce identical
// pipeline.Stats for every architecture — the invariant the memoizing run
// cache relies on: a cached result must be indistinguishable from
// re-simulating.
func TestRunsAreDeterministic(t *testing.T) {
	specs := map[string]RunSpec{
		"dkip-int": DKIPSpec("mcf", core.Config{}, testWarmup, testMeasure),
		"dkip-fp":  DKIPSpec("swim", core.Config{}, testWarmup, testMeasure),
		"ooo-int":  OOOSpec("gzip", ooo.R10K64(), testWarmup, testMeasure),
		"ooo-fp":   OOOSpec("applu", ooo.R10K256(), testWarmup, testMeasure),
		"kilo-int": OOOSpec("mcf", ooo.KILO1024(), testWarmup, testMeasure),
		"kilo-fp":  OOOSpec("art", ooo.KILO1024(), testWarmup, testMeasure),
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// A NoMemo runner forces both executions to really
			// simulate; a single runner would serve the second from
			// cache and prove nothing.
			r := NewRunner(NoMemo())
			a, err := r.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if a.Cached || b.Cached {
				t.Fatal("NoMemo runner served a cached result")
			}
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("back-to-back runs diverge:\n first: %+v\nsecond: %+v", a.Stats, b.Stats)
			}
			if a.Stats.Committed != spec.Measure {
				t.Errorf("committed %d instructions, want the measured %d", a.Stats.Committed, spec.Measure)
			}
		})
	}
}

// Worker-pool width must never change what is computed: the same spec set
// run through Parallel(1) and Parallel(8) yields byte-identical Stats per
// spec, the same number of real simulations, and balanced Metrics. This is
// the property that makes parallel, sharded, and cached sweeps
// interchangeable with a sequential run (run it under -race to also prove
// the bookkeeping is sound under contention).
func TestParallelismDoesNotChangeResults(t *testing.T) {
	base := []RunSpec{
		DKIPSpec("swim", core.Config{}, testWarmup, testMeasure),
		DKIPSpec("mcf", core.Config{}, testWarmup, testMeasure),
		OOOSpec("gzip", ooo.R10K64(), testWarmup, testMeasure),
		OOOSpec("applu", ooo.R10K256(), testWarmup, testMeasure),
		OOOSpec("art", ooo.KILO1024(), testWarmup, testMeasure),
	}
	// Triplicate the set so dedup and the memo cache are exercised under
	// contention, not just the happy path.
	var specs []RunSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, base...)
	}

	statsBytes := func(r *Result) string {
		b, err := json.Marshal(r.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	run := func(width int) ([]string, Metrics) {
		r := NewRunner(Parallel(width))
		results, err := r.RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = statsBytes(res)
		}
		return out, r.Metrics()
	}

	seq, mseq := run(1)
	par, mpar := run(8)
	for i := range specs {
		if seq[i] != par[i] {
			t.Errorf("spec %d (%s): Parallel(1) and Parallel(8) stats diverge:\n seq %s\n par %s",
				i, specs[i].Label(), seq[i], par[i])
		}
	}
	for name, m := range map[string]Metrics{"Parallel(1)": mseq, "Parallel(8)": mpar} {
		if m.Requested != m.Simulated+m.Deduped+m.CacheHits+m.DiskHits+m.Skipped {
			t.Errorf("%s metrics do not balance: %+v", name, m)
		}
		if m.Requested != uint64(len(specs)) {
			t.Errorf("%s requested %d runs, want %d", name, m.Requested, len(specs))
		}
		if m.Simulated != uint64(len(base)) {
			t.Errorf("%s simulated %d, want the %d unique specs", name, m.Simulated, len(base))
		}
	}
}
