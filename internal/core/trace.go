package core

import "condensation/internal/telemetry"

// childSpan starts a child span only under an already-sampled parent.
// Unlike Tracer.StartChild, a nil parent yields nil rather than a fresh
// sampled root: interior pipeline stages (split, leftover) only ever
// appear inside the tree of the operation that won the sampling draw,
// never as detached roots of their own.
func childSpan(tr *telemetry.Tracer, parent *telemetry.Span, name string) *telemetry.Span {
	if parent == nil {
		return nil
	}
	return tr.StartChild(parent, name)
}
