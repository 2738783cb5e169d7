// Package serve exposes the run-orchestration layer (internal/sim) over
// HTTP: a Server wrapping one process-wide sim.Runner + sim.Store that many
// clients hit concurrently, a Client speaking the wire protocol to one such
// daemon, and a Pool — the one remote sim.Backend — federating a fleet of
// daemons over per-member Clients (content-key rendezvous routing, chunked
// retrying submissions, health tracking, membership refresh, local
// failover). cmd/dkipd is the daemon binary; cmd/experiments -remote drives
// the whole experiment registry through a Pool, a single URL being a
// one-seed fleet.
//
// The wire protocol (all JSON):
//
//	POST /v1/runs            submit one Spec or {"specs": [...]}; blocks
//	                         until every run resolves, identical in-flight
//	                         submissions from different clients join the
//	                         same singleflight simulation; bodies over the
//	                         16 MiB limit answer 413
//	GET  /v1/runs/{key}      fetch one Result by content key; 404 on miss
//	                         unless ?wait=1 subscribes until it resolves
//	GET  /v1/results         stream the store manifest as NDJSON,
//	                         ?arch= and ?bench= filter
//	GET  /v1/metrics         runner Metrics + store stats
//	GET  /v1/healthz         liveness probe: constant-work 200, never
//	                         touches the runner or store
package serve

import (
	"fmt"
	"strings"

	"dkip/internal/core"
	"dkip/internal/inorder"
	"dkip/internal/ooo"
	"dkip/internal/sample"
	"dkip/internal/sim"
)

// Spec is the wire form of a sim.RunSpec: the engine selector as a string
// and at most one configuration payload matching it (an absent payload means
// the engine's zero configuration, i.e. the paper defaults). Function-typed
// configuration fields never travel — they are excluded from the JSON
// encoding just as the content hash skips them — so only Portable specs can
// be encoded, and every decoded spec is memoizable.
type Spec struct {
	Arch    string          `json:"arch"`
	Bench   string          `json:"bench"`
	Warmup  uint64          `json:"warmup"`
	Measure uint64          `json:"measure"`
	Tag     string          `json:"tag,omitempty"`
	OOO     *ooo.Config     `json:"ooo,omitempty"`
	DKIP    *core.Config    `json:"dkip,omitempty"`
	Inorder *inorder.Config `json:"inorder,omitempty"`
	// Sample carries the sampling plan when the run is sampled; absent for
	// full runs, so pre-sampling clients and daemons interoperate.
	Sample *sample.Plan `json:"sample,omitempty"`
}

// payload binds one architecture's configuration payload on Spec to its
// configuration field on sim.RunSpec; payloads is the wire codec's one
// table.
type payload struct {
	arch sim.Arch
	// encode copies s's configuration into w's payload. decode copies w's
	// payload, when present, into s and reports whether it was.
	encode func(w *Spec, s *sim.RunSpec)
	decode func(w *Spec, s *sim.RunSpec) bool
}

func bind[C any](arch sim.Arch, wire func(w *Spec) **C, field func(s *sim.RunSpec) *C) payload {
	return payload{
		arch: arch,
		encode: func(w *Spec, s *sim.RunSpec) {
			cfg := *field(s)
			*wire(w) = &cfg
		},
		decode: func(w *Spec, s *sim.RunSpec) bool {
			cfg := *wire(w)
			if cfg != nil {
				*field(s) = *cfg
			}
			return cfg != nil
		},
	}
}

var payloads = []payload{
	bind(sim.ArchOOO, func(w *Spec) **ooo.Config { return &w.OOO }, func(s *sim.RunSpec) *ooo.Config { return &s.OOO }),
	bind(sim.ArchDKIP, func(w *Spec) **core.Config { return &w.DKIP }, func(s *sim.RunSpec) *core.Config { return &s.DKIP }),
	bind(sim.ArchInorder, func(w *Spec) **inorder.Config { return &w.Inorder }, func(s *sim.RunSpec) *inorder.Config { return &s.Inorder }),
}

// EncodeSpec converts a sim.RunSpec to its wire form. Specs carrying opaque
// function fields (custom predictor constructors) are refused: serializing
// one would silently simulate a different machine on the daemon.
func EncodeSpec(s sim.RunSpec) (Spec, error) {
	if !s.Portable() {
		return Spec{}, fmt.Errorf("serve: spec %s carries opaque function fields and cannot run remotely", s.Label())
	}
	w := Spec{Arch: s.Arch.String(), Bench: s.Bench, Warmup: s.Warmup, Measure: s.Measure, Tag: s.Tag}
	if s.Sample.Enabled() {
		p := s.Sample
		w.Sample = &p
	}
	for _, p := range payloads {
		if p.arch == s.Arch {
			p.encode(&w, &s)
			return w, nil
		}
	}
	return Spec{}, fmt.Errorf("serve: unknown architecture %q", s.Arch)
}

// RunSpec converts the wire form back to a sim.RunSpec. It only shapes the
// spec; semantic validation (unknown benchmark, zero scale, invalid
// configuration) stays with sim.RunSpec.Validate, which the Server applies
// to every submission.
func (w Spec) RunSpec() (sim.RunSpec, error) {
	s := sim.RunSpec{Bench: w.Bench, Warmup: w.Warmup, Measure: w.Measure, Tag: w.Tag}
	if w.Sample != nil {
		s.Sample = *w.Sample
	}
	known, foreign := false, false
	for _, p := range payloads {
		carried := p.decode(&w, &s)
		if p.arch.String() == w.Arch {
			s.Arch, known = p.arch, true
		} else if carried {
			foreign = true
		}
	}
	if !known {
		return sim.RunSpec{}, fmt.Errorf("serve: unknown architecture %q (registered: %s)",
			w.Arch, strings.Join(sim.ArchNames(), ", "))
	}
	if foreign {
		return sim.RunSpec{}, fmt.Errorf("serve: %s spec carries a foreign config payload", w.Arch)
	}
	return s, nil
}
