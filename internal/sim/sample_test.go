package sim

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dkip/internal/core"
	"dkip/internal/ooo"
	"dkip/internal/sample"
)

// sampleBenches is the accuracy slice of the 26-benchmark suite: five
// integer and five floating-point profiles, deliberately including the
// noisiest ones — mcf's pointer chasing, vpr's data-dependent branches,
// ammp's chase chains, art and swim's memory streams — alongside quieter
// cache-resident codes (bzip2, crafty). Sampling error on the full suite is
// bracketed by these.
var sampleBenches = []string{
	"bzip2", "crafty", "gcc", "mcf", "vpr",
	"ammp", "art", "galgel", "swim", "wupwise",
}

// Sampling pays off on long runs: at this scale the defaulted plan keeps a
// 10× detailed-instruction reduction while detailed per-interval warmup
// still covers four fills of the largest instruction window. This is the
// scale the documented 3% error bound is stated at — at toy scales
// (goldens, quick sweeps) sampling still works but the reduction and the
// bound degrade together.
const (
	sampleScaleWarmup  = 10_000
	sampleScaleMeasure = 1_000_000
)

// sampleGrid is the arch×bench grid the accuracy bound is documented
// against: the Figure 9 machines at the sampling scale.
func sampleGrid() []RunSpec {
	configs := []RunSpec{
		OOOSpec("", ooo.R10K64(), sampleScaleWarmup, sampleScaleMeasure),
		OOOSpec("", ooo.R10K256(), sampleScaleWarmup, sampleScaleMeasure),
		OOOSpec("", ooo.KILO1024(), sampleScaleWarmup, sampleScaleMeasure),
		DKIPSpec("", core.Config{}, sampleScaleWarmup, sampleScaleMeasure),
	}
	var specs []RunSpec
	for _, bench := range sampleBenches {
		for _, s := range configs {
			s.Bench = bench
			specs = append(specs, s)
		}
	}
	return specs
}

// TestSampledAccuracy is the acceptance gate for the sampling methodology:
// across the Figure 9 arch×bench grid at the sampling scale, the default
// plan's CPI must stay within 3% mean absolute error (and 10% worst case)
// of the full run while simulating at least 10× fewer instructions in
// detail. Everything here is deterministic — the bound is a regression
// fence, not a flaky statistic. The shared store makes the cross-machine
// checkpoint reuse that a real sweep gets part of the measurement: each
// engine family pays the functional fast-forward once per benchmark.
func TestSampledAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full arch×bench grid at sampling scale")
	}
	if raceEnabled {
		t.Skip("simulates ~50M instructions; race overhead makes it minutes")
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var absErrSum, worst float64
	var n int
	for _, spec := range sampleGrid() {
		spec := spec
		full, err := NewRunner().Run(spec)
		if err != nil {
			t.Fatalf("full run %s: %v", spec.Label(), err)
		}
		spec.Sample = sample.DefaultPlan()
		st, sum, _, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("sampled run %s: %v", spec.Label(), err)
		}
		fullCPI := float64(full.Stats.Cycles) / float64(full.Stats.Committed)
		sampCPI := float64(st.Cycles) / float64(st.Committed)
		relErr := math.Abs(sampCPI-fullCPI) / fullCPI
		absErrSum += relErr
		if relErr > worst {
			worst = relErr
		}
		n++
		if r := sum.Reduction(); r < 10 {
			t.Errorf("%s: detailed-instruction reduction %.1f× < 10×", spec.Label(), r)
		}
		t.Logf("%-22s full=%.3f sampled=%.3f ±%.3f err=%.2f%% reduction=%.1fx",
			spec.Label(), fullCPI, sampCPI, sum.CPICI95, 100*relErr, sum.Reduction())
	}
	mae := absErrSum / float64(n)
	t.Logf("grid MAE %.2f%%, worst %.2f%% over %d points", 100*mae, 100*worst, n)
	if mae > 0.03 {
		t.Errorf("sampled CPI mean absolute error %.2f%% exceeds the documented 3%% bound", 100*mae)
	}
	if worst > 0.10 {
		t.Errorf("sampled CPI worst-case error %.2f%% exceeds 10%%", 100*worst)
	}
}

// TestSampledResumeDeterminism proves the checkpoint round trip is exact:
// a sampled run that reloads every checkpoint from the store produces
// byte-identical stats to one that computes them from cold — the in-Go
// counterpart of the CI artifact diff.
func TestSampledResumeDeterminism(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []RunSpec{
		DKIPSpec("mcf", core.Config{}, 2_000, 8_000),
		OOOSpec("swim", ooo.R10K256(), 2_000, 8_000),
	} {
		spec.Sample = sample.DefaultPlan()
		cold, coldSum, coldIO, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("cold %s: %v", spec.Label(), err)
		}
		if coldIO.Hits != 0 || coldIO.Writes == 0 {
			t.Fatalf("cold %s: io = %+v, want no hits and some writes", spec.Label(), coldIO)
		}
		resumed, resumedSum, resumedIO, err := SimulateSampled(spec, store)
		if err != nil {
			t.Fatalf("resumed %s: %v", spec.Label(), err)
		}
		if resumedIO.Hits == 0 || resumedIO.Misses != 0 {
			t.Fatalf("resumed %s: io = %+v, want all hits", spec.Label(), resumedIO)
		}
		if !reflect.DeepEqual(cold, resumed) {
			t.Errorf("%s: resumed stats differ from cold\ncold:    %+v\nresumed: %+v", spec.Label(), cold, resumed)
		}
		if !reflect.DeepEqual(coldSum, resumedSum) {
			t.Errorf("%s: resumed summary differs from cold", spec.Label())
		}
		// No store at all must also match: checkpoint reuse is a pure
		// optimization.
		bare, _, _, err := SimulateSampled(spec, nil)
		if err != nil {
			t.Fatalf("storeless %s: %v", spec.Label(), err)
		}
		if !reflect.DeepEqual(cold, bare) {
			t.Errorf("%s: storeless stats differ from cold-with-store", spec.Label())
		}
	}
}

// TestSampledPartialResume kills the middle out of a checkpoint set: the run
// must rebuild missing checkpoints by fast-forwarding from the last stored
// one and still produce identical results.
func TestSampledPartialResume(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := DKIPSpec("mcf", core.Config{}, 2_000, 8_000)
	spec.Sample = sample.DefaultPlan()
	cold, _, _, err := SimulateSampled(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	// Remove every other checkpoint blob.
	var blobs []string
	filepath.Walk(filepath.Join(dir, "checkpoints"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			blobs = append(blobs, p)
		}
		return nil
	})
	if len(blobs) < 2 {
		t.Fatalf("expected several checkpoint blobs, found %d", len(blobs))
	}
	for i, p := range blobs {
		if i%2 == 1 {
			os.Remove(p)
		}
	}
	resumed, _, io, err := SimulateSampled(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	if io.Hits == 0 || io.Misses == 0 {
		t.Fatalf("partial resume io = %+v, want a mix of hits and misses", io)
	}
	if !reflect.DeepEqual(cold, resumed) {
		t.Errorf("partial resume stats differ from cold")
	}
}

// TestSampleKeyStability pins the hash contract: a disabled plan leaves the
// key exactly as before sampling existed, an enabled plan changes it, and
// defaulted vs. explicit spellings of the same plan collide.
func TestSampleKeyStability(t *testing.T) {
	base := DKIPSpec("mcf", core.Config{}, 2_000, 8_000)
	plain := base.Key()
	sampled := base
	sampled.Sample = sample.DefaultPlan()
	if sampled.Key() == plain {
		t.Error("enabling sampling must change the content key")
	}
	explicit := base
	explicit.Sample = sampled.SamplePlan()
	if explicit.Key() != sampled.Key() {
		t.Error("defaulted and explicit spellings of one plan must share a key")
	}
	other := base
	other.Sample = sample.Plan{Intervals: 8}
	if other.Key() == sampled.Key() {
		t.Error("different plans must hash differently")
	}
}

// TestSampledThroughRunner exercises the memo/store integration: sampled
// results memoize, persist, round-trip with their summaries, and reuse
// checkpoints across sweep points that share a memory configuration.
func TestSampledThroughRunner(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithStore(store))
	mk := func(cfg ooo.Config) RunSpec {
		s := OOOSpec("mcf", cfg, 2_000, 8_000)
		s.Sample = sample.DefaultPlan()
		return s
	}
	res, err := r.Run(mk(ooo.R10K64()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil || res.Sampled.Intervals < 2 {
		t.Fatalf("sampled result carries no summary: %+v", res.Sampled)
	}
	m := r.Metrics()
	if m.CheckpointWrites == 0 {
		t.Fatalf("metrics = %+v, want checkpoint writes", m)
	}
	// A different window size shares the checkpoint set: same memory,
	// predictor, bench, positions.
	if _, err := r.Run(mk(ooo.R10K256())); err != nil {
		t.Fatal(err)
	}
	m = r.Metrics()
	if m.CheckpointHits == 0 {
		t.Fatalf("metrics = %+v, want checkpoint hits for the shared sweep point", m)
	}
	// The persisted result round-trips with its summary.
	got, ok := store.Get(mk(ooo.R10K64()).Key())
	if !ok {
		t.Fatal("sampled result not persisted")
	}
	if got.Sampled == nil || *got.Sampled != *res.Sampled {
		t.Errorf("stored summary %+v != fresh %+v", got.Sampled, res.Sampled)
	}
}
