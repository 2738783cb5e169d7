package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"dkip/internal/pipeline"
	"dkip/internal/sim"
	"dkip/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Error("p99 of 999 samples reported although only 9 lie beyond it")
	}
	v, ok := percentile(mk(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
	if v, ok := percentile(mk(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestFastEndIgnoresSlowSpells(t *testing.T) {
	var times []float64
	for i := 1; i <= 20; i++ {
		times = append(times, float64(i))
	}
	if got := fastTime(times); got != 2 {
		t.Errorf("fastTime(1..20) = %v, want 2", got)
	}
	if got := fastRate(times); got != 18 {
		t.Errorf("fastRate(1..20) = %v, want 18", got)
	}
	// A slow spell over most of a run leaves its fast end where it was.
	spell := append([]float64{}, times[:4]...)
	for i := 0; i < 16; i++ {
		spell = append(spell, 30+float64(i))
	}
	if got := fastTime(spell); got != 2 {
		t.Errorf("fastTime with a slow spell = %v, want 2", got)
	}
	if fastTime(nil) != 0 || fastRate(nil) != 0 {
		t.Error("fast end of no samples is not 0")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 50},  // overlaps the first
		{Parent: 1, Start: 25, End: 40},  // inside both
		{Parent: 1, Start: 90, End: 120}, // ends after the parent
		{Parent: 1, Start: -5, End: 5},   // starts before it
	}
	// Covered: [0,5] + [10,50] + [90,100] = 55.
	if got := selfTime(parent, kids); got != 45 {
		t.Errorf("selfTime = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	all := append([]span{parent}, kids...)
	if got := len(children(all)[1]); got != len(kids) {
		t.Errorf("children found %d, want %d", got, len(kids))
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	tr := newTracer()
	tr.add(span{Name: "off"})
	tr.on.Store(true)
	id := tr.add(span{Name: "on"})
	tr.on.Store(false)
	tr.put(span{Name: "after", Parent: id})
	if got := tr.count(); got != 2 {
		t.Fatalf("recorded %d spans, want 2", got)
	}
	path := t.TempDir() + "/spans.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Errorf("span file has %d lines, want 2", lines)
	}
}

func TestDigestCheckFiresOnPerturbedResult(t *testing.T) {
	st := &pipeline.Stats{Cycles: 1000, Committed: 500, Branches: 40}
	d := newDigests()
	if err := d.check("dkip/swim", st); err != nil {
		t.Fatal(err)
	}
	same := *st
	if err := d.check("dkip/swim", &same); err != nil {
		t.Errorf("identical repeat rejected: %v", err)
	}
	before := d.sum()
	bad := *st
	bad.Cycles++
	if err := d.check("dkip/swim", &bad); err == nil {
		t.Error("perturbed repeat accepted")
	}
	if d.sum() != before {
		t.Error("a rejected repeat changed the digest")
	}
	if err := checkCommitted("x", &bad, 501); err == nil {
		t.Error("wrong committed count accepted")
	}

	// A hit whose bytes differ from its miss is a failed operation.
	miss := &outcome{id: 7, stats: statsJSON(st)}
	hit := &outcome{id: 7, hit: true, stats: statsJSON(&bad)}
	rep := newReport()
	verifyDirect(rep, []*outcome{miss, hit}, 0)
	if rep.failed != 1 {
		t.Errorf("perturbed hit counted %d failures, want 1", rep.failed)
	}
}

func TestServedResultChecks(t *testing.T) {
	spec := sim.MustPresetSpec("dkip", "swim", 10, 100)
	ok := &outcome{spec: spec, res: &sim.Result{Stats: &pipeline.Stats{Committed: 100}}}
	if err := checkServed(ok); err != nil {
		t.Errorf("good miss rejected: %v", err)
	}
	cachedMiss := &outcome{spec: spec, res: &sim.Result{Cached: true, Stats: &pipeline.Stats{Committed: 100}}}
	if checkServed(cachedMiss) == nil {
		t.Error("miss answered from a cache accepted")
	}
	freshHit := &outcome{spec: spec, hit: true, res: &sim.Result{Stats: &pipeline.Stats{Committed: 100}}}
	if checkServed(freshHit) == nil {
		t.Error("hit that simulated again accepted")
	}
	short := &outcome{spec: spec, res: &sim.Result{Stats: &pipeline.Stats{Committed: 99}}}
	if checkServed(short) == nil {
		t.Error("short run accepted")
	}
}

// smoke runs one workload at tiny scale and checks its report.
func smoke(t *testing.T, name string, traced bool) {
	t.Helper()
	cfg := config{workload: name, seed: 3, seconds: 0.05, trace: traced, scratch: t.TempDir(), tiny: true}
	tr := newTracer()
	rep, err := workloads[name](cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%s: %d of %d operations failed: %v", name, rep.failed, rep.attempted, rep.problems)
	}
	if rep.digest == "" {
		t.Error("no stats digest")
	}
	if !traced {
		rep.set("peak_rss_mb", peakRSSMB())
		for _, m := range endToEnd {
			if v, ok := rep.values[m]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", name, m, v, ok)
			}
		}
	} else {
		for m := range metricUnits {
			if _, ok := rep.values[m]; isPerLayer(m) && m != "trace.spans" && !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m)
			}
		}
		if tr.count() == 0 {
			t.Error("traced run recorded no spans")
		}
	}
	var out bytes.Buffer
	if err := rep.print(&out, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Attempted != rep.attempted {
		t.Errorf("result object %+v disagrees with the report", res)
	}
}

func TestSmokeSteady(t *testing.T)       { smoke(t, "steady", false) }
func TestSmokeSteadyTraced(t *testing.T) { smoke(t, "steady", true) }
func TestSmokeSweep(t *testing.T)        { smoke(t, "sweep", false) }
func TestSmokeSweepTraced(t *testing.T)  { smoke(t, "sweep", true) }
func TestSmokeServe(t *testing.T)        { smoke(t, "serve", false) }
func TestSmokeServeTraced(t *testing.T)  { smoke(t, "serve", true) }

func TestServeMixIsBalanced(t *testing.T) {
	shape := serveScale(false)
	product := len(sim.PresetNames()) * len(workload.Names())
	seqs := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		var seq []string
		for c := 0; c < 2; c++ {
			g := newServeGen(seed, c, 2, shape)
			pairs := map[string]int{}
			keys := map[string]bool{}
			for i := 0; i < shape.perClient; i++ {
				o, err := g.next()
				if err != nil {
					t.Fatal(err)
				}
				seq = append(seq, o.spec.Key())
				if o.hit {
					if !keys[o.spec.Key()] {
						t.Fatalf("request %d repeats a spec never answered", i)
					}
					continue
				}
				if keys[o.spec.Key()] {
					t.Fatalf("request %d: fresh spec %d repeats a key", i, o.id)
				}
				keys[o.spec.Key()] = true
				g.answered = append(g.answered, o)
				pairs[o.spec.ConfigName()+"/"+o.spec.Bench]++
			}
			if g.misses != shape.perClient/2 {
				t.Errorf("seed %d client %d: %d misses in %d requests, want one per pair", seed, c, g.misses, shape.perClient)
			}
			// One pass of one client simulates every preset on every
			// benchmark exactly once.
			if len(pairs) != product {
				t.Errorf("seed %d client %d: %d distinct preset×benchmark pairs, want %d", seed, c, len(pairs), product)
			}
			for name, n := range pairs {
				if n != 1 {
					t.Errorf("seed %d client %d: pair %s drawn %d times, want 1", seed, c, name, n)
				}
			}
		}
		seqs[seed] = strings.Join(seq, ",")
	}
	if seqs[1] == seqs[2] {
		t.Error("two seeds drew the same request sequence")
	}
}

func TestDigestRepeatsForASeed(t *testing.T) {
	grid := func(seed uint64) []string {
		specs, err := sweepGrid(seed, true)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(specs))
		for i, s := range specs {
			keys[i] = s.Key()
		}
		return keys
	}
	a, b, c := grid(5), grid(5), grid(6)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("one seed built two different sweeps")
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Error("two seeds built the same sweep")
	}
}

func TestSweepGridShape(t *testing.T) {
	specs, err := sweepGrid(1, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		keys[s.Key()] = true
	}
	// Each preset's own L2 size is one of the grid's sizes, so one cell
	// per preset repeats the first part.
	dups := len(sim.PresetNames()) * 2 * sweepBenchesPerSuite
	if got := len(specs) - len(keys); got != dups {
		t.Errorf("grid of %d specs has %d repeats, want %d", len(specs), got, dups)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "steady", "-trace", "2"},
		{"-workload", "steady", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a failure and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json in step with the metrics
// and workloads this command reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command runs %d", names, len(workloads))
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, metricUnits[m.Name])
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	want := append([]string(nil), endToEnd...)
	sort.Strings(want)
	sort.Strings(e2e)
	if strings.Join(want, ",") != strings.Join(e2e, ",") {
		t.Errorf("end_to_end %v, code reports %v", e2e, want)
	}
	var layers, wantLayers []string
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if metricUnits[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, metricUnits[m.Name])
		}
	}
	for n := range metricUnits {
		if isPerLayer(n) {
			wantLayers = append(wantLayers, n)
		}
	}
	sort.Strings(layers)
	sort.Strings(wantLayers)
	if strings.Join(layers, ",") != strings.Join(wantLayers, ",") {
		t.Errorf("per_layer %v, code reports %v", layers, wantLayers)
	}
}
