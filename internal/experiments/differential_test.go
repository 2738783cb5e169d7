package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dkip/internal/sim"
	"dkip/internal/workload"
)

// diffRun is the normalized per-run record of the differential golden: one
// sim.Result with the wall-clock and provenance fields (elapsed_ns, cached)
// dropped, keyed by the spec's content key. The stats are stored as raw
// JSON and compared by canonical re-encoding.
type diffRun struct {
	Key     string          `json:"key"`
	Arch    string          `json:"arch"`
	Config  string          `json:"config"`
	Bench   string          `json:"bench"`
	Warmup  uint64          `json:"warmup"`
	Measure uint64          `json:"measure"`
	Stats   json.RawMessage `json:"stats"`
}

// differentialJobs is the cross-engine spec matrix the differential golden
// pins: the Figure 9 grid (both out-of-order presets, the KILO machine, and
// the default D-KIP over every benchmark) plus the Figure 10 scheduler
// variants on two FP workloads — every pre-engine-refactor code path of the
// two original models, at QuickScale so the records match the quick-artifact
// scale the golden was extracted from.
func differentialJobs() []job {
	s := QuickScale()
	var jobs []job
	for _, a := range fig9Configs() {
		for _, b := range workload.Names() {
			jobs = append(jobs, a.mk(b, s))
		}
	}
	for _, cp := range cpPoints {
		for _, mp := range mpPoints {
			cfg := dkipSched(cp, mp)
			for _, b := range []string{"swim", "applu"} {
				jobs = append(jobs, run(cfg.Name+"/"+b, sim.DKIPSpec(b, cfg, s.Warmup, s.Measure), s))
			}
		}
	}
	return jobs
}

// TestDifferentialGolden is the cross-engine refactor gate: simulating the
// differential matrix must reproduce, byte for byte (modulo wall clock), the
// records the pre-engine-refactor simulator produced for the same specs —
// including the content keys, so a hash drift and a behavior drift are both
// caught. The golden file was extracted from a full pre-refactor
// `cmd/experiments -run all -quick -json` artifact; regenerate with -update
// only when a behavior change is intended, and say so in the commit.
func TestDifferentialGolden(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("differential matrix is simulation-heavy; covered by the non-race run")
	}
	if testing.Short() {
		t.Skip("differential matrix simulates ~130 quick-scale runs")
	}

	jobs := differentialJobs()
	specs := make([]sim.RunSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	results, err := sim.NewRunner().RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]diffRun, len(results))
	for i, r := range results {
		stats, err := json.Marshal(r.Stats)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = diffRun{
			Key: r.Key, Arch: r.Arch, Config: r.Config, Bench: r.Bench,
			Warmup: r.Warmup, Measure: r.Measure, Stats: stats,
		}
	}

	path := filepath.Join("testdata", "differential.golden.json")
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing differential golden (run with -update to create): %v", err)
	}
	var want []diffRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]diffRun, len(want))
	for _, w := range want {
		byKey[w.Key] = w
	}

	for i, g := range got {
		w, ok := byKey[g.Key]
		if !ok {
			t.Errorf("%s (%s/%s): content key %s not in the pre-refactor golden — the spec hash drifted",
				jobs[i].key, g.Config, g.Bench, g.Key)
			continue
		}
		if g.Arch != w.Arch || g.Config != w.Config || g.Bench != w.Bench ||
			g.Warmup != w.Warmup || g.Measure != w.Measure {
			t.Errorf("%s: record header drifted: got %s/%s/%s %d/%d, want %s/%s/%s %d/%d",
				g.Key, g.Arch, g.Config, g.Bench, g.Warmup, g.Measure,
				w.Arch, w.Config, w.Bench, w.Warmup, w.Measure)
		}
		if gs, ws := canonJSON(t, g.Stats), canonJSON(t, w.Stats); gs != ws {
			t.Errorf("%s (%s/%s): stats drifted from the pre-refactor engine:\ngot:  %s\nwant: %s",
				g.Key, g.Config, g.Bench, gs, ws)
		}
	}
}

// canonJSON re-encodes raw JSON with sorted keys so formatting differences
// between the golden file and a fresh Marshal never count as drift.
func canonJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var v interface{}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
