package core

import (
	"sort"

	"condensation/internal/mat"
)

// This file is the engine's routing dry-run (Explain): where a record
// would go and what ingesting it would do, computed against the live
// shard. It is the one diagnostic that reads the engine rather than a
// Release — its outcome describes what Add would do now, which a Release
// cannot know (during a pure-stream bootstrap the Release is empty while
// Add would absorb) — so its candidate filter is the one k check outside
// NewRelease: a group below k is never offered as a candidate, since its
// centroid is the mean of fewer than k raw records. The dry-run is
// strictly read-only — it mutates no group, centroid, router, rng stream,
// counter, or shared scratch — so it is safe under a read lock concurrent
// with other readers and leaves checkpoint bytes untouched.

// Explain outcomes: what ingesting the explained record would do.
const (
	// ExplainAbsorb: the record would be absorbed by the nearest group.
	ExplainAbsorb = "absorb"
	// ExplainSplit: absorbing the record would bring the nearest group to
	// 2k records and trigger the paper's split.
	ExplainSplit = "split"
	// ExplainFound: the engine (or the record's shard) holds no groups yet,
	// so the record would found the first one.
	ExplainFound = "found"
)

// explainDefaultTop is the candidate count Explain reports when the caller
// does not ask for a specific one.
const explainDefaultTop = 5

// ExplainCandidate is one nearest-centroid candidate of a routing dry-run.
type ExplainCandidate struct {
	// ID is the candidate group's stable id.
	ID uint64 `json:"id"`
	// DistanceSq is the exact float64 squared Euclidean distance from the
	// explained record to the candidate's centroid — the quantity routing
	// minimizes.
	DistanceSq float64 `json:"distance_sq"`
	// Size is the candidate's current record count.
	Size int `json:"size"`
}

// Explanation is the result of a routing dry-run: where a record would go
// and what would happen to it, computed without ingesting it.
type Explanation struct {
	// Shard is the shard the record routes to (0 on a 1-shard engine).
	Shard int `json:"shard"`
	// Generation is the mutation generation the dry-run observed; the
	// explanation is exact for this state.
	Generation uint64 `json:"generation"`
	// Groups is the group count of the routed shard.
	Groups int `json:"groups"`
	// Outcome is one of the Explain* constants.
	Outcome string `json:"outcome"`
	// Routed is the winning candidate — the exact lexicographic
	// (distance, id) minimum every router backend agrees on. Nil when the
	// outcome is ExplainFound, or when the winner holds fewer than k
	// records.
	Routed *ExplainCandidate `json:"routed,omitempty"`
	// Candidates are the top-M nearest groups of at least k records in
	// exact (distance, id) order; Candidates[0] equals *Routed when Routed
	// is set.
	Candidates []ExplainCandidate `json:"candidates,omitempty"`
}

// explain dry-runs routing one validated record within the shard: it
// reports the top candidate groups of at least k records in the exact
// (squared distance, id) order every router backend produces, and the
// outcome ingesting the record would have — absorb, split (the nearest
// group sits at 2k−1), or found (no groups yet). top ≤ 0 asks for the
// default candidate count.
//
// The dry-run is strictly side-effect-free: it scans the shard's centroid
// cache directly instead of going through the router (whose sampled stage
// timing advances a counter), mutates nothing, and draws nothing from the
// rng stream — so checkpoint bytes and condensed output are bit-identical
// whether Explain was called or not. A read lock suffices.
func (sh *shard) explain(x mat.Vector, top int) *Explanation {
	if top <= 0 {
		top = explainDefaultTop
	}
	ex := &Explanation{Shard: sh.index, Generation: sh.lastMut, Groups: len(sh.groups)}
	if len(sh.groups) == 0 {
		ex.Outcome = ExplainFound
		return ex
	}

	type slotDist struct {
		slot int
		d2   float64
	}
	order := make([]slotDist, len(sh.centroids))
	for i, c := range sh.centroids {
		order[i] = slotDist{slot: i, d2: x.DistSq(c)}
	}
	// The routers' lexicographic (squared distance, slot) minimum, extended
	// to a total order so Candidates[0] is exactly where Add would route.
	sort.Slice(order, func(a, b int) bool {
		if order[a].d2 != order[b].d2 {
			return order[a].d2 < order[b].d2
		}
		return order[a].slot < order[b].slot
	})
	ex.Candidates = make([]ExplainCandidate, 0, min(top, len(order)))
	for _, s := range order {
		if len(ex.Candidates) == top {
			break
		}
		if n := sh.groups[s.slot].N(); n >= sh.k {
			ex.Candidates = append(ex.Candidates, ExplainCandidate{
				ID:         sh.meta[s.slot].id,
				DistanceSq: s.d2,
				Size:       n,
			})
		}
	}
	if len(ex.Candidates) > 0 && ex.Candidates[0].ID == sh.meta[order[0].slot].id {
		routed := ex.Candidates[0]
		ex.Routed = &routed
	}
	if sh.groups[order[0].slot].N()+1 == 2*sh.k {
		ex.Outcome = ExplainSplit
	} else {
		ex.Outcome = ExplainAbsorb
	}
	return ex
}

// Explain dry-runs routing one record without ingesting it: the record's
// shard is resolved by the same stable hash ingestion uses, and the
// dry-run runs under that shard's read lock — strictly side-effect-free,
// concurrent with ingest on every other shard. See shard.explain.
func (d *Dynamic) Explain(x mat.Vector, top int) (*Explanation, error) {
	if err := d.validateRecord(x); err != nil {
		return nil, err
	}
	sh := d.shards[d.shardOf(x)]
	sh.mu.RLock()
	ex := sh.explain(x, top)
	sh.mu.RUnlock()
	return ex, nil
}
