package core

import (
	"condensation/internal/mat"
	"condensation/internal/stats"
)

// Release is one immutable, k-gated cut of an engine's state at one
// mutation generation: the only form in which condensed state leaves the
// process. It holds exactly the groups of the cut with at least k records,
// in the cut's shard order, plus the count of groups and records it
// withholds. Every group a Release holds therefore condenses at least k
// records — the paper's contract, enforced at the one place every read
// artifact is derived from.
//
// A pure-stream shard founds its first group from a single record, so
// until that group reaches k records the shard has nothing releasable:
// a Release of it is empty, and a checkpoint taken from such a Release
// omits at most k−1 records per shard. The paper's setting always starts
// from an initial database, where no group is ever below k.
type Release struct {
	gen  uint64
	cond *Condensation
	// sizes[i] is the record count of cond's group i; shard s's groups are
	// cond's groups ends[s]:ends[s+1].
	sizes []int
	ends  []int

	withheldGroups, withheldRecords int
	splits                          int
}

// NewRelease gates cut, an engine snapshot (Engine.Condensation) of an
// engine with the given shard count taken at generation gen. Each group's
// shard is read from its stable id's shard bits; a cut without ids is
// treated as one shard. When no group falls below k the Release holds cut
// itself, uncopied, so synthesis stream indices and SharesGroup reuse are
// exactly those of the cut.
func NewRelease(gen uint64, cut *Condensation, shards int) *Release {
	shards = max(shards, 1)
	r := &Release{gen: gen, cond: cut, ends: make([]int, shards+1), splits: cut.splits}
	for _, g := range cut.groups {
		if n := g.N(); n < cut.k {
			r.withheldGroups++
			r.withheldRecords += n
		}
	}
	if r.withheldGroups > 0 {
		kept := len(cut.groups) - r.withheldGroups
		groups := make([]*stats.Group, 0, kept)
		var meta []*groupMeta
		for i, g := range cut.groups {
			if g.N() < cut.k {
				continue
			}
			groups = append(groups, g)
			if cut.meta != nil {
				meta = append(meta, cut.meta[i])
			}
		}
		r.cond = cut.derive(groups, meta)
	}
	r.sizes = make([]int, len(r.cond.groups))
	for i, g := range r.cond.groups {
		r.sizes[i] = g.N()
		s := 0
		if r.cond.meta != nil {
			s = shardOfID(r.cond.meta[i].id, shards)
		}
		r.ends[s+1]++
	}
	for s := 1; s <= shards; s++ {
		r.ends[s] += r.ends[s-1]
	}
	return r
}

// Generation returns the mutation generation the Release was cut at.
func (r *Release) Generation() uint64 { return r.gen }

// Condensation returns the released groups as a Condensation. It is shared
// and must not be modified.
func (r *Release) Condensation() *Condensation { return r.cond }

// Shard returns shard i's released groups as a Condensation. It panics
// when i is out of range.
func (r *Release) Shard(i int) *Condensation {
	lo, hi := r.ends[i], r.ends[i+1]
	return r.cond.derive(r.cond.groups[lo:hi:hi], r.shardMeta(i))
}

// shardMeta returns the ids and lineage of shard i's released groups, or
// nil for a cut without ids.
func (r *Release) shardMeta(i int) []*groupMeta {
	if r.cond.meta == nil {
		return nil
	}
	lo, hi := r.ends[i], r.ends[i+1]
	return r.cond.meta[lo:hi:hi]
}

// Sizes returns the record count of every released group, in release
// order. The slice is shared and must not be modified.
func (r *Release) Sizes() []int { return r.sizes }

// ShardSizes returns the record counts of shard i's released groups. The
// slice is shared and must not be modified. It panics when i is out of
// range.
func (r *Release) ShardSizes(i int) []int { return r.sizes[r.ends[i]:r.ends[i+1]:r.ends[i+1]] }

// Withheld returns the number of groups, and the records they condense,
// that the cut held below k and the Release therefore leaves out.
func (r *Release) Withheld() (groups, records int) { return r.withheldGroups, r.withheldRecords }

// Splits returns the number of group splits the engine had performed
// when it cut the Release.
func (r *Release) Splits() int { return r.splits }

// Changes calls emit for every group id that r and prev, an earlier
// release of the same engine (nil for none), do not both hold: shard by
// shard, first each id only prev holds (released false), then each id only
// r holds (released true), in release order.
func (r *Release) Changes(prev *Release, emit func(gi GroupInfo, released bool)) {
	for s := 0; s+1 < len(r.ends); s++ {
		var was []*groupMeta
		if prev != nil {
			was = prev.shardMeta(s)
		}
		now := r.shardMeta(s)
		in := make(map[uint64]uint8, len(was)+len(now)) // bit 1: held by prev; bit 2: held by r
		for _, m := range was {
			in[m.id] |= 1
		}
		for _, m := range now {
			in[m.id] |= 2
		}
		for i, m := range was {
			if in[m.id]&2 == 0 {
				emit(prev.groupInfo(prev.ends[s]+i), false)
			}
		}
		for i, m := range now {
			if in[m.id]&1 == 0 {
				emit(r.groupInfo(r.ends[s]+i), true)
			}
		}
	}
}

// shardOfID returns the shard an id was allocated on, read from its shard
// bits and clamped to the last of shards.
func shardOfID(id uint64, shards int) int {
	return int(min(id>>groupIDShardShift, uint64(shards-1)))
}

// GroupInfo is one released group's lifecycle summary, computed from its
// moments and its observe-only id and lineage alone.
type GroupInfo struct {
	// ID is the group's stable engine-wide id (see groupIDShardShift).
	ID uint64 `json:"id"`
	// Shard is the engine shard holding the group.
	Shard int `json:"shard"`
	// Size is n(G), the number of condensed records.
	Size int `json:"size"`
	// Parent is the id of the split parent the group was born from, or 0
	// for founded and initial groups.
	Parent uint64 `json:"parent,omitempty"`
}

// GroupDetail extends GroupInfo with the group's centroid and covariance
// conditioning for the per-group diagnostics endpoint. Nothing about the
// group's birth beyond its parent is reported: a founded group's birth
// centroid is its first raw record, and its distance from the current
// centroid would give that record back. Drift between released centroids
// stays computable from two releases.
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

// GroupInfos appends the lifecycle summary of every released group to buf
// (resliced to zero length first, allocated when nil) in release order,
// and returns it. A cut without ids has no summaries. Like every Release
// read it is pure: the groups are shared clones no writer touches.
func (r *Release) GroupInfos(buf []GroupInfo) []GroupInfo {
	if buf == nil {
		buf = make([]GroupInfo, 0, len(r.cond.meta))
	}
	buf = buf[:0]
	for i := range r.cond.meta {
		buf = append(buf, r.groupInfo(i))
	}
	return buf
}

// GroupByID returns the diagnostics detail of the released group with the
// given stable id, or ok=false when the Release holds no such group
// (withheld below k, retired by a split, never allocated, or a cut without
// ids). Only the shard named by the id's shard bits is searched.
func (r *Release) GroupByID(id uint64) (GroupDetail, bool) {
	s := shardOfID(id, len(r.ends)-1)
	for i, m := range r.shardMeta(s) {
		if m.id == id {
			return r.groupDetail(r.ends[s] + i), true
		}
	}
	return GroupDetail{}, false
}

// groupInfo summarizes released group i.
func (r *Release) groupInfo(i int) GroupInfo {
	m := r.cond.meta[i]
	return GroupInfo{
		ID:     m.id,
		Shard:  shardOfID(m.id, len(r.ends)-1),
		Size:   r.cond.groups[i].N(),
		Parent: m.parent,
	}
}

// groupDetail builds the detail view of released group i. The centroid
// is bit-identical to the engine's cached one: both scale Fs by the same
// reciprocal. The eigensolve works on fresh workspaces, so concurrent
// readers never share scratch.
func (r *Release) groupDetail(i int) GroupDetail {
	c := make(mat.Vector, r.cond.dim)
	_ = r.cond.groups[i].MeanInto(c) // released groups hold at least k ≥ 1 records
	det := GroupDetail{GroupInfo: r.groupInfo(i), Centroid: c}
	// The audit's convention: eigenvalues sorted descending, condition
	// number defined only when both extremes are strictly positive.
	eig, err := r.cond.groups[i].Eigen()
	if err != nil || eig.Values[0] <= 0 || eig.Values[len(eig.Values)-1] <= 0 {
		det.Degenerate = true
		return det
	}
	det.CondNumber = eig.Values[0] / eig.Values[len(eig.Values)-1]
	return det
}
