package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dkip/internal/sim"
)

// Live sweep progress: GET /v1/progress?keys=k1,k2,... streams NDJSON
// events counting how many of the named content keys have resolved —
// in this daemon's runner or anywhere in the shared store, so a fleet
// client can watch one member and still see fleet-wide completion (every
// daemon's write-behind lands in the same store). cmd/experiments -progress
// drives a sweep's live counter off this stream.

// ProgressEvent is one line of the progress stream.
type ProgressEvent struct {
	// Done counts the requested keys resolved so far; Total echoes how many
	// were requested (after dedup).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Final marks the closing event: all keys resolved, or the server's
	// stream budget elapsed.
	Final bool `json:"final,omitempty"`
}

// progress handler bounds.
const (
	defaultProgressInterval = time.Second
	minProgressInterval     = 100 * time.Millisecond
	// progressBudget bounds how long one stream may stay open — the
	// backstop against watchers of keys that will never resolve.
	progressBudget = time.Hour
	// maxProgressKeys bounds one stream's key set; a sweep larger than this
	// should watch in slices (the Pool chunks submissions far smaller).
	maxProgressKeys = 100000
)

// handleProgress streams resolution progress for a key set. The endpoint is
// deliberately ungated — a stream held open for a sweep's whole duration
// must not occupy an admission slot a submission needs — and bounded
// instead by the progress budget and a per-write deadline, so an
// unresolvable key set or a vanished client releases the goroutine.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("keys")
	var keys []string
	seen := make(map[string]bool)
	for _, k := range strings.Split(raw, ",") {
		if k = strings.TrimSpace(k); k != "" && !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		http.Error(w, "serve: progress wants ?keys=k1,k2,...", http.StatusBadRequest)
		return
	}
	if len(keys) > maxProgressKeys {
		http.Error(w, fmt.Sprintf("serve: progress key set exceeds the %d-key limit; watch the sweep in slices", maxProgressKeys), http.StatusBadRequest)
		return
	}
	interval := defaultProgressInterval
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			http.Error(w, fmt.Sprintf("serve: bad progress interval %q: %v", q, err), http.StatusBadRequest)
			return
		}
		interval = d
	}
	if interval < minProgressInterval {
		interval = minProgressInterval
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	resolved := make([]bool, len(keys))
	count := func() int {
		done := 0
		for i, k := range keys {
			if !resolved[i] {
				if _, ok := s.runner.Lookup(k); ok {
					resolved[i] = true
				} else if s.store != nil && s.store.Has(k) {
					resolved[i] = true
				}
			}
			if resolved[i] {
				done++
			}
		}
		return done
	}
	emit := func(ev ProgressEvent) bool {
		// A scraper that stopped reading must not pin this goroutine: each
		// write gets its own deadline, and a failed write ends the stream.
		_ = rc.SetWriteDeadline(time.Now().Add(s.streamWriteTimeout))
		if err := json.NewEncoder(w).Encode(ev); err != nil {
			return false
		}
		_ = rc.Flush()
		return true
	}

	budget := time.NewTimer(progressBudget)
	defer budget.Stop()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := count()
	if !emit(ProgressEvent{Done: last, Total: len(keys), Final: last == len(keys)}) || last == len(keys) {
		return
	}
	for {
		select {
		case <-ticker.C:
			done := count()
			if done == len(keys) {
				emit(ProgressEvent{Done: done, Total: len(keys), Final: true})
				return
			}
			if done != last {
				last = done
				if !emit(ProgressEvent{Done: done, Total: len(keys)}) {
					return
				}
			}
		case <-budget.C:
			emit(ProgressEvent{Done: last, Total: len(keys), Final: true})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// Progress streams GET /v1/progress for the given keys, invoking fn per
// event, until the stream ends (all keys resolved, the daemon's budget
// elapsed, or ctx canceled — the latter returns nil, it is the caller
// hanging up). interval <= 0 leaves the cadence to the daemon.
func (c *Client) Progress(ctx context.Context, keys []string, interval time.Duration, fn func(ProgressEvent)) error {
	q := url.Values{"keys": {strings.Join(keys, ",")}}
	if interval > 0 {
		q.Set("interval", interval.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/progress?"+q.Encode(), nil)
	if err != nil {
		return fmt.Errorf("serve: progress: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("serve: progress: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		var ev ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("serve: decode progress event: %w", err)
		}
		fn(ev)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("serve: progress stream: %w", err)
	}
	return nil
}

// ProgressKeys extracts the content keys of a spec set the way a progress
// watcher needs them: deduplicated, order-preserving, uncacheable specs
// (which have no stable key) skipped.
func ProgressKeys(specs []sim.RunSpec) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, s := range specs {
		if !s.Memoizable() {
			continue
		}
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
