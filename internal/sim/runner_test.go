package sim

import (
	"sync"
	"sync/atomic"
	"testing"

	"dkip/internal/core"
	"dkip/internal/ooo"
	"dkip/internal/predictor"
)

// testScale keeps runner tests to milliseconds per simulation.
const (
	testWarmup  = 500
	testMeasure = 2000
)

func TestRunMemoizes(t *testing.T) {
	var sims atomic.Uint64
	r := NewRunner(OnSimulate(func(RunSpec) { sims.Add(1) }))
	spec := DKIPSpec("swim", core.Config{}, testWarmup, testMeasure)

	first, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first run reported cached")
	}
	second, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second run not served from cache")
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("simulated %d times, want 1", got)
	}
	if *first.Stats != *second.Stats {
		t.Error("cached stats differ from the original run")
	}
	if first.Stats == second.Stats {
		t.Error("callers must receive independent Stats copies")
	}
	m := r.Metrics()
	if m.Requested != 2 || m.Simulated != 1 || m.CacheHits != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// Duplicated specs submitted together — the fig1/fig11/fig12 overlap case —
// must simulate exactly once, under -race.
func TestRunAllDeduplicates(t *testing.T) {
	var mu sync.Mutex
	simsPerKey := map[string]int{}
	r := NewRunner(OnSimulate(func(s RunSpec) {
		mu.Lock()
		simsPerKey[s.Key()]++
		mu.Unlock()
	}))

	uniq := []RunSpec{
		DKIPSpec("swim", core.Config{}, testWarmup, testMeasure),
		DKIPSpec("mcf", core.Config{}, testWarmup, testMeasure),
		OOOSpec("swim", ooo.R10K64(), testWarmup, testMeasure),
	}
	var specs []RunSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, uniq...)
	}
	results, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d is nil", i)
		}
		if res.Bench != specs[i].Bench {
			t.Errorf("result %d out of order: bench %s for spec %s", i, res.Bench, specs[i].Bench)
		}
	}
	for key, n := range simsPerKey {
		if n != 1 {
			t.Errorf("key %s simulated %d times, want exactly 1", key, n)
		}
	}
	m := r.Metrics()
	if m.Simulated != uint64(len(uniq)) {
		t.Errorf("simulated %d, want %d unique", m.Simulated, len(uniq))
	}
	if m.Deduped+m.CacheHits != uint64(len(specs)-len(uniq)) {
		t.Errorf("deduped+cached = %d, want %d", m.Deduped+m.CacheHits, len(specs)-len(uniq))
	}
	// Identical runs must also produce identical stats regardless of
	// which caller triggered the simulation.
	for i := len(uniq); i < len(specs); i++ {
		if *results[i].Stats != *results[i%len(uniq)].Stats {
			t.Errorf("result %d differs from its duplicate", i)
		}
	}
}

// Within one RunAll batch the first-submitted spec of a key leads its call,
// so a renamed duplicate's record carries the first spec's Config name
// whatever the goroutine schedule: artifacts and the differential golden
// depend on it.
func TestRunAllFirstSubmittedLeads(t *testing.T) {
	first := OOOSpec("gzip", ooo.R10K64(), 100, 500)
	renamed := first
	renamed.OOO.Name = "renamed"
	specs := []RunSpec{first}
	for i := 0; i < 16; i++ {
		specs = append(specs, renamed)
	}
	for pass := 0; pass < 10; pass++ {
		r := NewRunner()
		results, err := r.RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Config != "R10-64" {
				t.Fatalf("pass %d: result %d carries %q, want the first-submitted R10-64", pass, i, res.Config)
			}
		}
		if recs := r.Results(); len(recs) != 1 || recs[0].Config != "R10-64" {
			t.Fatalf("pass %d: recorded runs %v, want one R10-64", pass, recs)
		}
	}
}

// Concurrent Run calls for the same spec (not batched through RunAll) must
// coalesce via singleflight.
func TestConcurrentRunsCoalesce(t *testing.T) {
	var sims atomic.Uint64
	r := NewRunner(OnSimulate(func(RunSpec) { sims.Add(1) }))
	spec := OOOSpec("gzip", ooo.R10K64(), testWarmup, testMeasure)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := sims.Load(); got != 1 {
		t.Errorf("simulated %d times, want 1", got)
	}
}

func TestNoMemoResimulates(t *testing.T) {
	var sims atomic.Uint64
	r := NewRunner(NoMemo(), OnSimulate(func(RunSpec) { sims.Add(1) }))
	spec := DKIPSpec("swim", core.Config{}, testWarmup, testMeasure)
	for i := 0; i < 3; i++ {
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Error("NoMemo runner served a cache hit")
		}
	}
	if got := sims.Load(); got != 3 {
		t.Errorf("simulated %d times, want 3", got)
	}
}

// Opaque specs (custom predictor, no tag) must bypass the cache entirely
// rather than alias distinct machines.
func TestOpaqueSpecsNeverCached(t *testing.T) {
	var sims atomic.Uint64
	r := NewRunner(OnSimulate(func(RunSpec) { sims.Add(1) }))
	spec := DKIPSpec("swim", core.Config{
		NewPredictor: func() predictor.Predictor { return predictor.NewPerceptron(64, 8) },
	}, testWarmup, testMeasure)
	for i := 0; i < 2; i++ {
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Error("opaque spec served from cache")
		}
	}
	m := r.Metrics()
	if sims.Load() != 2 || m.Uncacheable != 2 {
		t.Errorf("sims = %d, metrics = %+v; want 2 uncacheable simulations", sims.Load(), m)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run(DKIPSpec("no-such-bench", core.Config{}, testWarmup, testMeasure)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if m := r.Metrics(); m.Simulated != 0 {
		t.Errorf("invalid spec simulated: %+v", m)
	}
}

func TestResultsRecordsUniqueRuns(t *testing.T) {
	r := NewRunner()
	spec := DKIPSpec("swim", core.Config{}, testWarmup, testMeasure)
	for i := 0; i < 3; i++ {
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Results()
	if len(res) != 1 {
		t.Fatalf("Results holds %d records, want 1 (unique simulations only)", len(res))
	}
	if res[0].Key != spec.Key() || res[0].Bench != "swim" || res[0].Config != "DKIP-2048" {
		t.Errorf("record = %+v", res[0])
	}
}
