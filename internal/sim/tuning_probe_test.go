package sim

import (
	"fmt"
	"math"
	"os"
	"testing"

	"dkip/internal/core"
	"dkip/internal/ooo"
	"dkip/internal/sample"
)

// TestSamplePlanProbe is a manual tuning harness, not a regression test: run
// with DKIP_SAMPLE_PROBE=1 to scan candidate plans against the worst-case
// grid points and print their error profiles.
func TestSamplePlanProbe(t *testing.T) {
	if os.Getenv("DKIP_SAMPLE_PROBE") == "" {
		t.Skip("set DKIP_SAMPLE_PROBE=1 to run the tuning probe")
	}
	warmup, _ := parseU(os.Getenv("PROBE_W"), 10_000)
	measure, _ := parseU(os.Getenv("PROBE_M"), 390_000)
	configs := []RunSpec{
		OOOSpec("", ooo.R10K64(), warmup, measure),
		OOOSpec("", ooo.R10K768(), warmup, measure),
		OOOSpec("", ooo.KILO1024(), warmup, measure),
		DKIPSpec("", core.Config{}, warmup, measure),
	}
	benches := []string{"mcf", "vpr", "ammp", "galgel", "swim", "art"}
	plans := []sample.Plan{
		{Intervals: 4, Interval: uint64(measure / 80), Warmup: uint64(measure / 160)},
		{Intervals: 8, Interval: uint64(measure / 160), Warmup: uint64(measure / 320)},
		{Intervals: 8, Interval: uint64(measure / 120), Warmup: uint64(measure / 600)},
		{Intervals: 4, Interval: uint64(measure / 60), Warmup: uint64(measure / 240)},
		{Intervals: 2, Interval: uint64(measure / 40), Warmup: uint64(measure / 80)},
	}
	full := map[string]float64{}
	r := NewRunner()
	for _, cfg := range configs {
		for _, bench := range benches {
			spec := cfg
			spec.Bench = bench
			res, err := r.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			full[spec.Label()] = float64(res.Stats.Cycles) / float64(res.Stats.Committed)
		}
	}
	for _, plan := range plans {
		var mae, worst float64
		var n int
		var worstLabel string
		for _, cfg := range configs {
			for _, bench := range benches {
				spec := cfg
				spec.Bench = bench
				spec.Sample = plan
				st, sum, _, err := SimulateSampled(spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				cpi := float64(st.Cycles) / float64(st.Committed)
				e := math.Abs(cpi-full[spec.Label()]) / full[spec.Label()]
				mae += e
				if e > worst {
					worst, worstLabel = e, spec.Label()
				}
				n++
				if os.Getenv("PROBE_VERBOSE") != "" {
					t.Logf("  %-20s %s full=%.3f samp=%.3f err=%.2f%% red=%.1fx",
						spec.Label(), plan, full[spec.Label()], cpi, 100*e, sum.Reduction())
				}
			}
		}
		norm := plan.Complete(warmup, measure, 0)
		red := float64(warmup+measure) / float64(uint64(norm.Intervals)*(norm.Warmup+norm.Interval))
		t.Logf("plan %-16s MAE=%.2f%% worst=%.2f%% (%s) reduction=%.1fx over %d pts",
			plan, 100*mae/float64(n), 100*worst, worstLabel, red, n)
	}
}

func parseU(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	var v uint64
	_, err := fmt.Sscanf(s, "%d", &v)
	if err != nil {
		return def, err
	}
	return v, nil
}
