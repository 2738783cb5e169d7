package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"dkip/internal/pipeline"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// median returns the middle value (mean of the two middle ones for an even
// count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) and whether at
// least minBeyond samples lie above it; a percentile with fewer samples
// beyond it is not reported as that percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return s[rank], n-1-rank >= minBeyond
}

// fastEnd is the quantile every timed end-to-end figure is read at. On a
// shared host, noise from other tenants only ever slows a repetition down.
// On a 2-vCPU virtual machine, a fixed simulation loop's slow spells lasted
// seconds and moved 30-second medians by up to 29%, while the fast end of
// each 30 seconds moved by 5-10%. Times are therefore reported at their 10th
// percentile and rates at their 90th, over all of a run's samples. setup_s
// is the median of the run's set-ups.
const fastEnd = 0.1

// fastTime is the 10th-percentile (nearest-rank) time, or 0 for no values.
func fastTime(xs []float64) float64 {
	v, _ := percentile(xs, fastEnd)
	return v
}

// fastRate is the 90th-percentile (nearest-rank) rate, or 0 for no values.
func fastRate(xs []float64) float64 {
	v, _ := percentile(xs, 1-fastEnd)
	return v
}

// samplesFor is the sample count at which the q-percentile first has
// minBeyond samples beyond it.
func samplesFor(q float64) int {
	for n := 1; ; n++ {
		if _, ok := percentile(make([]float64, n), q); ok {
			return n
		}
	}
}

// millis is a duration in milliseconds.
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// statsJSON is the canonical encoding of a simulation outcome: the bytes
// compared between a repeat and its first run, a hit and its miss, and the
// serve path and a direct Runner.
func statsJSON(st *pipeline.Stats) []byte {
	b, err := json.Marshal(st)
	if err != nil {
		// Stats is a plain struct of numbers; encoding cannot fail.
		panic(err)
	}
	return b
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// digests checks that every outcome filed under one name is byte-identical
// to the first, and folds the names and outcomes into one digest.
type digests struct {
	first map[string]string
}

func newDigests() *digests { return &digests{first: map[string]string{}} }

// check files an outcome under name; it errors when an earlier outcome
// under the same name differs.
func (d *digests) check(name string, st *pipeline.Stats) error {
	got := digestOf(statsJSON(st))
	if want, ok := d.first[name]; ok && want != got {
		return fmt.Errorf("%s: stats digest %s differs from the first run's %s", name, got, want)
	}
	d.first[name] = got
	return nil
}

// sum folds every name and its digest, in name order, into one digest.
func (d *digests) sum() string {
	names := make([]string, 0, len(d.first))
	for n := range d.first {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s;", n, d.first[n])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkCommitted verifies that a simulation measured exactly the
// instructions it was asked to.
func checkCommitted(label string, st *pipeline.Stats, measure uint64) error {
	if st == nil {
		return fmt.Errorf("%s: no statistics", label)
	}
	if st.Committed != measure {
		return fmt.Errorf("%s: committed %d instructions, want %d", label, st.Committed, measure)
	}
	return nil
}
