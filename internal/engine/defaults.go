package engine

import (
	"dkip/internal/isa"
	"dkip/internal/pipeline"
	"dkip/internal/trace"
)

// No-op defaults for the Model hooks that not every machine needs. They are
// declared on *Engine, so every model embedding an Engine inherits them and
// overrides only the hooks it gives real behaviour.

// EndCycle runs no per-cycle epilogue.
//
//dkip:hotpath
func (e *Engine) EndCycle(g trace.Generator) {}

// ConsiderWake adds no wake sources beyond the engine's own.
//
//dkip:hotpath
func (e *Engine) ConsiderWake(w *WakeScan) {}

// OnRename records no model occupancy.
//
//dkip:hotpath
func (e *Engine) OnRename(d *pipeline.DynInst, q *pipeline.IssueQueue) {}

// FetchNext supplies instructions straight from the generator.
//
//dkip:hotpath
func (e *Engine) FetchNext(g trace.Generator) isa.Instr { return g.Next() }

// RecoveryExtra charges no surcharge beyond the redirect penalty.
//
//dkip:hotpath
func (e *Engine) RecoveryExtra(d *pipeline.DynInst) int64 { return 0 }

// IssueExtraLatency charges no latency beyond the operation's own.
//
//dkip:hotpath
func (e *Engine) IssueExtraLatency(d *pipeline.DynInst) int64 { return 0 }

// OnBeginMeasure has no model-owned statistics to reset.
//
//dkip:hotpath
func (e *Engine) OnBeginMeasure() {}

// FinishStats has no model-owned statistics to copy.
//
//dkip:hotpath
func (e *Engine) FinishStats(st *pipeline.Stats) {}
