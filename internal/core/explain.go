package core

import (
	"sort"

	"condensation/internal/mat"
	"condensation/internal/stats"
)

// This file is the engine's explainability surface: per-group lifecycle
// diagnostics (GroupInfos, GroupByID) and the routing dry-run (Explain).
// Like a Release, it reports only groups holding at least k records: a
// smaller group's centroid is the mean of fewer than k raw records (a
// pure-stream shard's first group is one record verbatim), so it is never
// summarized, looked up, or offered as a candidate. Everything here is
// strictly read-only — no method mutates groups, centroids, routers, the
// rng stream, counters, or shared scratch — so the whole surface is safe
// under a read lock concurrent with other readers, and calling it any
// number of times leaves checkpoint bytes untouched.

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

// GroupInfo is one group's lifecycle summary, computed from the retained
// moments and the observe-only birth annotations alone.
type GroupInfo struct {
	// ID is the group's stable engine-wide id (see groupIDShardShift).
	ID uint64 `json:"id"`
	// Shard is the engine shard holding the group.
	Shard int `json:"shard"`
	// Size is n(G), the number of condensed records.
	Size int `json:"size"`
	// BirthGeneration is the mutation generation the group was born at
	// (0 for groups seeded from an initial condensation or checkpoint).
	BirthGeneration uint64 `json:"birth_generation"`
	// Parent is the id of the split parent the group was born from, or 0
	// for founded and initial groups.
	Parent uint64 `json:"parent,omitempty"`
	// CentroidDrift is the Euclidean distance between the group's current
	// centroid and its centroid at birth — how far absorbed records have
	// dragged the group since it was created.
	CentroidDrift float64 `json:"centroid_drift"`
}

// GroupDetail extends GroupInfo with the group's centroid and covariance
// conditioning for the per-group diagnostics endpoint. The centroid at
// birth is not reported: a founded group's birth centroid is its first
// raw record. CentroidDrift summarizes it instead.
type GroupDetail struct {
	GroupInfo
	// Centroid is the group's current centroid Y(G).
	Centroid mat.Vector `json:"centroid"`
	// CondNumber is the covariance condition number λmax/λmin, the same
	// convention the audit uses; 0 when Degenerate.
	CondNumber float64 `json:"condition_number,omitempty"`
	// Degenerate reports a covariance with a non-positive extreme
	// eigenvalue (singleton groups, collapsed attributes), for which the
	// condition number is undefined.
	Degenerate bool `json:"degenerate"`
}

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

// groupInfoAt summarizes group slot i. Read-only; caller holds the lock.
func (sh *shard) groupInfoAt(i int, g *stats.Group) GroupInfo {
	b := sh.births[i]
	return GroupInfo{
		ID:              sh.ids[i],
		Shard:           sh.index,
		Size:            g.N(),
		BirthGeneration: b.gen,
		Parent:          b.parent,
		CentroidDrift:   sh.centroids[i].Dist(b.centroid),
	}
}

// appendGroupInfos appends the summary of every group of at least k
// records to buf in slot order.
func (sh *shard) appendGroupInfos(buf []GroupInfo) []GroupInfo {
	for i, g := range sh.groups {
		if g.N() >= sh.k {
			buf = append(buf, sh.groupInfoAt(i, g))
		}
	}
	return buf
}

// groupByID returns the diagnostics detail of the shard's live group with
// the given stable id, unless it holds fewer than k records. The lookup
// is a linear scan over the group slots — diagnostics cadence, not serving
// cadence. Pure read; the eigensolve uses fresh workspaces, never the
// shard's split scratch.
func (sh *shard) groupByID(id uint64) (GroupDetail, bool) {
	for i := range sh.ids {
		if sh.ids[i] == id {
			if sh.groups[i].N() < sh.k {
				break
			}
			return sh.groupDetailAt(i), true
		}
	}
	return GroupDetail{}, false
}

// groupDetailAt builds the detail view of group slot i.
func (sh *shard) groupDetailAt(i int) GroupDetail {
	g := sh.groups[i]
	det := GroupDetail{
		GroupInfo: sh.groupInfoAt(i, g),
		Centroid:  sh.centroids[i].Clone(),
	}
	eig, err := g.Eigen()
	if err != nil {
		det.Degenerate = true
		return det
	}
	// The audit's convention: eigenvalues sorted descending, condition
	// number defined only when both extremes are strictly positive.
	lmax := eig.Values[0]
	lmin := eig.Values[len(eig.Values)-1]
	if lmin <= 0 || lmax <= 0 {
		det.Degenerate = true
		return det
	}
	det.CondNumber = lmax / lmin
	return det
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
				ID:         sh.ids[s.slot],
				DistanceSq: s.d2,
				Size:       n,
			})
		}
	}
	if len(ex.Candidates) > 0 && ex.Candidates[0].ID == sh.ids[order[0].slot] {
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

// GroupInfos appends the lifecycle summary of every live group holding at
// least k records to buf (resliced to zero length first) in stable
// shard-then-slot order, each shard read under its own read lock.
func (d *Dynamic) GroupInfos(buf []GroupInfo) []GroupInfo {
	buf = buf[:0]
	for _, sh := range d.shards {
		sh.mu.RLock()
		buf = sh.appendGroupInfos(buf)
		sh.mu.RUnlock()
	}
	return buf
}

// GroupByID returns the diagnostics detail of the live group with the
// given stable id, if it holds at least k records. The owning shard is
// recovered from the id's base bits, so only that shard's read lock is
// taken.
func (d *Dynamic) GroupByID(id uint64) (GroupDetail, bool) {
	i := int(id >> groupIDShardShift)
	if i < 0 || i >= len(d.shards) {
		return GroupDetail{}, false
	}
	sh := d.shards[i]
	sh.mu.RLock()
	det, ok := sh.groupByID(id)
	sh.mu.RUnlock()
	return det, ok
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
