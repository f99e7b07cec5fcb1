package core

import "condensation/internal/stats"

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
}

// NewRelease gates cut, an engine snapshot (Engine.Condensation) of an
// engine with the given shard count taken at generation gen. Each group's
// shard is read from its stable id's shard bits; a cut without ids is
// treated as one shard. When no group falls below k the Release holds cut
// itself, uncopied, so synthesis stream indices and SharesGroup reuse are
// exactly those of the cut.
func NewRelease(gen uint64, cut *Condensation, shards int) *Release {
	shards = max(shards, 1)
	r := &Release{gen: gen, cond: cut, ends: make([]int, shards+1)}
	for _, g := range cut.groups {
		if n := g.N(); n < cut.k {
			r.withheldGroups++
			r.withheldRecords += n
		}
	}
	if r.withheldGroups > 0 {
		kept := len(cut.groups) - r.withheldGroups
		groups := make([]*stats.Group, 0, kept)
		var ids []uint64
		if cut.groupIDs != nil {
			ids = make([]uint64, 0, kept)
		}
		for i, g := range cut.groups {
			if g.N() < cut.k {
				continue
			}
			groups = append(groups, g)
			if ids != nil {
				ids = append(ids, cut.groupIDs[i])
			}
		}
		r.cond = cut.derive(groups, ids)
	}
	r.sizes = make([]int, len(r.cond.groups))
	for i, g := range r.cond.groups {
		r.sizes[i] = g.N()
		s := 0
		if r.cond.groupIDs != nil {
			s = min(int(r.cond.groupIDs[i]>>groupIDShardShift), shards-1)
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
	var ids []uint64
	if r.cond.groupIDs != nil {
		ids = r.cond.groupIDs[lo:hi:hi]
	}
	return r.cond.derive(r.cond.groups[lo:hi:hi], ids)
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
