package core

import (
	"fmt"

	"condensation/internal/mat"
)

// This file is the routing dry-run (Explain): where a record would go and
// what ingesting it would do, answered from a Release like every other
// read of condensed state. The record's shard comes from the hash
// ingestion uses, and its candidates are that shard's released groups, so
// every distance and size it reports describes published state, and a
// group below k is never a candidate because no Release holds one.
//
// The outcome is a prediction made against that state. It equals what Add
// would do on the engine the Release was cut from whenever the shard holds
// no group below k. A group splits into two children of k records, so the
// only live group below k is a pure-stream shard's first group while it
// holds fewer than k records; during that window the shard's Release is
// empty and Explain answers found with no candidates.

// Explain outcomes: what ingesting the explained record would do.
const (
	// ExplainAbsorb: the record would be absorbed by the nearest group.
	ExplainAbsorb = "absorb"
	// ExplainSplit: absorbing the record would bring the nearest group to
	// 2k records and trigger the paper's split.
	ExplainSplit = "split"
	// ExplainFound: the record's shard releases no groups, so as far as
	// the published state shows, the record would found the first one.
	ExplainFound = "found"
)

const (
	// explainDefaultTop is the candidate count Explain reports when the
	// caller does not ask for a specific one.
	explainDefaultTop = 5
	// ExplainMaxTop caps the candidates one Explain may ask for, so a
	// one-record request cannot read back every group.
	ExplainMaxTop = 64
)

// ExplainCandidate is one nearest-centroid candidate of a routing dry-run.
type ExplainCandidate struct {
	// ID is the candidate group's stable id.
	ID uint64 `json:"id"`
	// DistanceSq is the exact float64 squared Euclidean distance from the
	// explained record to the candidate's centroid — the quantity routing
	// minimizes.
	DistanceSq float64 `json:"distance_sq"`
	// Size is the candidate's released record count.
	Size int `json:"size"`
}

// Explanation is the result of a routing dry-run: where a record would go
// and what would happen to it, computed without ingesting it.
type Explanation struct {
	// Shard is the shard the record routes to (0 on a 1-shard engine).
	Shard int `json:"shard"`
	// Generation is the generation of the Release the dry-run read.
	Generation uint64 `json:"generation"`
	// Groups is the released group count of the routed shard.
	Groups int `json:"groups"`
	// Outcome is one of the Explain* constants.
	Outcome string `json:"outcome"`
	// Routed is the winning candidate, Candidates[0]. Nil when the
	// outcome is ExplainFound.
	Routed *ExplainCandidate `json:"routed,omitempty"`
	// Candidates are the shard's top nearest released groups in the exact
	// (squared distance, slot) order ingestion routes by.
	Candidates []ExplainCandidate `json:"candidates,omitempty"`
}

// Explain dry-runs routing one record against the Release: it validates
// the record as ingestion does, resolves its shard, and reports up to top
// of that shard's released groups (top ≤ 0 asks for the default; above
// ExplainMaxTop is an error) and the outcome their sizes imply — absorb,
// split (the nearest group holds 2k−1 records), or found (the shard
// releases no group). Like every Release read it is pure.
func (r *Release) Explain(x mat.Vector, top int) (*Explanation, error) {
	if err := validateRecord(x, r.cond.dim); err != nil {
		return nil, err
	}
	if top > ExplainMaxTop {
		return nil, fmt.Errorf("core: explain top %d is above the cap of %d", top, ExplainMaxTop)
	}
	if top <= 0 {
		top = explainDefaultTop
	}
	s := recordShard(x, len(r.ends)-1)
	lo, hi := r.ends[s], r.ends[s+1]
	ex := &Explanation{Shard: s, Generation: r.gen, Groups: hi - lo, Outcome: ExplainFound}
	if lo == hi {
		return ex, nil
	}
	// Keep the top nearest in a sorted buffer. A shard's released groups
	// are in its slot order, and a later group displaces an earlier one
	// only when strictly nearer: the centroid index's tie rule.
	c := make(mat.Vector, r.cond.dim)
	best := make([]ExplainCandidate, 0, min(top, hi-lo))
	for i := lo; i < hi; i++ {
		_ = r.cond.groups[i].MeanInto(c) // released groups hold at least k ≥ 1 records
		d2 := x.DistSq(c)
		if len(best) == top {
			if d2 >= best[top-1].DistanceSq {
				continue
			}
			best = best[:top-1]
		}
		j := len(best)
		for j > 0 && best[j-1].DistanceSq > d2 {
			j--
		}
		var id uint64
		if r.cond.meta != nil {
			id = r.cond.meta[i].id
		}
		best = append(best, ExplainCandidate{})
		copy(best[j+1:], best[j:])
		best[j] = ExplainCandidate{ID: id, DistanceSq: d2, Size: r.sizes[i]}
	}
	ex.Candidates = best
	routed := best[0]
	ex.Routed = &routed
	if routed.Size+1 == 2*r.cond.k {
		ex.Outcome = ExplainSplit
	} else {
		ex.Outcome = ExplainAbsorb
	}
	return ex, nil
}
