package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// searchSampleEvery is the sampling stride of the dynamic routing stage
// timer: one in every searchSampleEvery routed records is timed, on the
// Add and AddBatch paths alike. Two
// time.Now() calls per record are measurable at high ingest rates, so the
// histogram trades completeness for throughput — the sampled latencies
// are representative (routing cost varies only with the group count,
// which moves slowly) and the counters remain exact.
const searchSampleEvery = 64

// shard is one independent group set of a Dynamic engine — the state the
// paper's DynamicGroupMaintenance (Figure 2) maintains. Each arriving
// record is added to the group with the nearest centroid; as soon as a
// group reaches 2k records its statistics are split into two groups of k
// records each (SplitGroupStatistics), so every group holds between k and
// 2k−1 records in steady state. Only aggregate statistics are retained —
// never the raw stream records.
//
// Records are routed through a knn.CentroidIndex over the group
// centroids: it scans linearly while it is small and answers from a box
// tree that stays exact under centroid drift and splits as it grows,
// returning the paper's linear-scan answer either way. The index's arenas
// are the only copy of the centroids: group i's centroid is router point
// i. Every field is guarded by mu, which the owning Dynamic takes around
// each call: the write lock for ingest and configuration, the read lock
// for snapshots and diagnostics. Records reaching a shard have already been validated
// by the engine.
type shard struct {
	mu sync.RWMutex

	k    int
	dim  int
	opts Options
	r    *rng.Source

	groups []*stats.Group
	total  int // cached running record count (Σ g.N()), updated on ingest
	splits int // group splits performed so far
	met    engineMetrics
	tr     *telemetry.Tracer

	router *knn.CentroidIndex // exact nearest-centroid index; point i is group i's centroid
	mean   mat.Vector         // scratch for a changed group's new centroid, copied into router
	routed int                // records routed, for sampled stage timing
	eig    mat.EigenScratch   // reusable split eigensolve workspaces

	// Stable group identity and lineage, maintained in parallel with
	// groups: meta[i] is slot i's id and split parent. Ids
	// are allocated monotonically under idBase — this shard's partition of
	// the id space (see groupIDShardShift) — so ids are unique engine-wide
	// and never reused after a split retires them. All of it is
	// observe-only: ids never influence routing, splits, or the rng
	// stream, and they are not serialized into checkpoints (a resumed
	// engine renumbers from scratch).
	meta   []*groupMeta
	idBase uint64
	idSeq  uint64

	// index is this shard's position in the engine; it labels the
	// shard's metrics and errors.
	index int

	// gen is the engine's mutation generation, shared by every shard: a
	// monotone counter advanced before every state-changing apply and
	// untouched by reads, so a generation value names a unique prefix of
	// the engine-wide mutation sequence — the property that lets every
	// read-side cache in the stack (the snapshot cache below, the server's
	// artifact memos, checkpoint ETags) use it as a complete version key.
	// lastMut is the counter value at this shard's own most recent
	// mutation, so a shard's snapshot cache invalidates only when that
	// shard changed, not when any sibling did.
	gen     *atomic.Uint64
	lastMut uint64

	// The generation-keyed snapshot cache: the group clones handed out by
	// the last condensation call, valid while lastMut still equals
	// snapGen. Writers never touch it (they only advance the generation —
	// copy on write-invalidate, not copy on read); concurrent readers
	// racing to rebuild it under the read lock serialize on snapMu.
	// snapMeta is the meta slice frozen with the clones, annotated onto
	// snapshots. dirty has one bit per slot, set by every write that
	// changes the slot's group in place (ingest, which also covers the
	// split's first half), so a miss re-clones only those slots and the
	// slots appended since (founded groups, the split's second half), and
	// shares every other clone with the previous snapshot. Writers set
	// bits under mu's write lock; a miss clears them under the read lock
	// and snapMu, so the two never overlap.
	snapMu     sync.Mutex
	snapGen    uint64
	snapGroups []*stats.Group
	snapMeta   []*groupMeta
	dirty      []uint64
}

// groupMeta is one group's observe-only identity and lineage: its stable
// id and the id of the split parent it was born from (0 for founded or
// initial groups). It keeps nothing computed from records: a founded
// group's birth centroid would be its first raw record. A value is immutable once stored: a split stores a new one for
// the slot, so snapshots share the pointers with the live shard.
type groupMeta struct {
	id     uint64
	parent uint64
}

// groupIDShardShift partitions the 64-bit group-id space per shard: shard
// i allocates ids under base i<<48, so ids from different shards can never
// collide and the owning shard is recoverable as id>>48. 2^48 ids per
// shard outlasts any realistic stream; 2^16 shards outlasts any machine.
const groupIDShardShift = 48

// newMeta annotates a group born now: the next stable id under this
// shard's base (1-based, so 0 stays the "no parent" sentinel) and the
// given split parent (0 when founded).
func (sh *shard) newMeta(parent uint64) *groupMeta {
	sh.idSeq++
	return &groupMeta{id: sh.idBase | sh.idSeq, parent: parent}
}

// markDirty records that slot i's group changed since the last snapshot
// clone.
func (sh *shard) markDirty(i int) {
	w := i / 64
	for len(sh.dirty) <= w {
		sh.dirty = append(sh.dirty, 0)
	}
	sh.dirty[w] |= 1 << (i % 64)
}

// isDirty reports whether slot i changed since the last snapshot clone.
func (sh *shard) isDirty(i int) bool {
	w := i / 64
	return w < len(sh.dirty) && sh.dirty[w]&(1<<(i%64)) != 0
}

// bump advances the mutation generation at the start of a state change,
// so a generation-keyed cache can never mistake a pre-mutation snapshot
// for current state.
func (sh *shard) bump() { sh.lastMut = sh.gen.Add(1) }

// setTelemetry attaches a metrics registry, stamping the given label
// pairs onto every engine series.
func (sh *shard) setTelemetry(reg *telemetry.Registry, labels ...string) {
	sh.met = newEngineMetrics(reg, labels...)
	sh.met.withSearchBackend(reg, "centroid-kdtree", labels...)
	sh.met.groups.Set(float64(len(sh.groups)))
}

// add routes one stream record to the group with the nearest centroid and
// splits that group if it reaches 2k records, recording a sampled
// per-record span.
func (sh *shard) add(x mat.Vector) error {
	sp := sh.tr.StartChild(nil, "dynamic.add")
	if sp == nil {
		_, err := sh.place(x, nil)
		return err
	}
	best, err := sh.place(x, sp)
	sp.SetAttrInt("group", best)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

// place is add's body: it founds group 0 on an empty shard, and otherwise
// routes x and ingests it, returning the group x went to. sp, when
// non-nil, is the span a split records its child under (add's sampled
// per-record span, or addBatch's batch span).
func (sh *shard) place(x mat.Vector, sp *telemetry.Span) (int, error) {
	if len(sh.groups) == 0 {
		return 0, sh.found(x)
	}
	best := sh.route(x)
	if err := sh.ingest(best, x, sp); err != nil {
		return best, err
	}
	sh.met.streamRecords.Inc()
	return best, nil
}

// found admits the very first stream record of an empty shard: it
// founds group 0.
func (sh *shard) found(x mat.Vector) error {
	sh.bump()
	g := stats.NewGroup(sh.dim)
	if err := g.Add(x); err != nil {
		return err
	}
	sh.groups = append(sh.groups, g)
	if err := g.MeanInto(sh.mean); err != nil {
		return err
	}
	sh.meta = append(sh.meta, sh.newMeta(0))
	if _, err := sh.router.Add(sh.mean); err != nil {
		return err
	}
	sh.total++
	sh.met.streamRecords.Inc()
	sh.met.groupsFormed.Inc()
	sh.met.groups.Set(float64(len(sh.groups)))
	return nil
}

// route finds the nearest centroid in H to x through the centroid index,
// timing one record in searchSampleEvery.
func (sh *shard) route(x mat.Vector) int {
	sh.routed++
	if sh.met.enabled && sh.routed%searchSampleEvery == 1 {
		t0 := time.Now()
		best, _ := sh.router.Nearest(x)
		sh.met.search.ObserveSince(t0)
		return best
	}
	best, _ := sh.router.Nearest(x)
	return best
}

// ingest folds x into group best, writes the group's new centroid into
// the router (no allocation), and performs the paper's split once the
// group reaches 2k records: delete M from H, add M1 and M2 to H. sp,
// when non-nil, is the enclosing trace span (the sampled per-record span
// for Add, the batch span for AddBatch); a split then records a child
// span under it.
func (sh *shard) ingest(best int, x mat.Vector, sp *telemetry.Span) error {
	sh.bump()
	sh.markDirty(best)
	g := sh.groups[best]
	if err := g.Add(x); err != nil {
		return err
	}
	sh.total++
	if err := g.MeanInto(sh.mean); err != nil {
		return err
	}
	if err := sh.router.Update(best, sh.mean); err != nil {
		return err
	}

	if g.N() == 2*sh.k {
		var t0 time.Time
		if sh.met.enabled {
			t0 = time.Now()
		}
		splitSpan := childSpan(sh.tr, sp, "dynamic.split")
		splitSpan.SetAttrInt("group", best)
		m1, m2, err := splitGroupWith(g, sh.k, sh.opts.SplitAxis, sh.r, &sh.eig)
		if err != nil {
			return fmt.Errorf("core: splitting group %d: %w", best, err)
		}
		parentID := sh.meta[best].id
		sh.groups[best] = m1
		if err := m1.MeanInto(sh.mean); err != nil {
			return err
		}
		if err := sh.router.Update(best, sh.mean); err != nil {
			return err
		}
		if err := m2.MeanInto(sh.mean); err != nil {
			return err
		}
		sh.groups = append(sh.groups, m2)
		// The parent id retires with the split; both halves are new groups
		// with fresh ids and lineage back to the parent.
		sh.meta[best] = sh.newMeta(parentID)
		sh.meta = append(sh.meta, sh.newMeta(parentID))
		if _, err := sh.router.Add(sh.mean); err != nil {
			return err
		}
		splitSpan.End()
		if sh.met.enabled {
			sh.met.split.ObserveSince(t0)
		}
		sh.splits++
		sh.met.splitEvents.Inc()
		sh.met.groupsFormed.Inc()
		sh.met.groups.Set(float64(len(sh.groups)))
	}
	return nil
}

// condensation snapshots the shard's groups as an immutable Condensation.
// The group copies are cached per mutation generation: a snapshot taken
// with no intervening writes reuses the previous call's clones instead of
// re-copying O(G·d²) state, so repeated reads of unchanged state cost one
// slice header. A miss re-clones only the slots marked dirty since the
// previous miss and shares every other clone with the previous snapshot,
// so a snapshot after a write costs one pointer per group plus one clone
// per changed group. The cached groups are never mutated afterwards —
// stats.Group read methods are pure and Condensation.Groups() clones on
// access — so sharing them across snapshots is safe; each call still gets
// a fresh Condensation header, so per-caller settings (parallelism,
// telemetry, tracer) never leak between snapshots.
func (sh *shard) condensation() *Condensation {
	sh.snapMu.Lock()
	if sh.snapGroups == nil || sh.snapGen != sh.lastMut {
		prev := sh.snapGroups
		groups := make([]*stats.Group, len(sh.groups))
		for i, g := range sh.groups {
			if i < len(prev) && !sh.isDirty(i) {
				groups[i] = prev[i]
			} else {
				groups[i] = g.Clone()
			}
		}
		clear(sh.dirty)
		sh.snapGroups = groups
		sh.snapMeta = append([]*groupMeta(nil), sh.meta...)
		sh.snapGen = sh.lastMut
		sh.met.snapMisses.Inc()
	} else {
		sh.met.snapHits.Inc()
	}
	groups := sh.snapGroups
	meta := sh.snapMeta
	sh.snapMu.Unlock()
	cond := newCondensation(sh.dim, sh.k, sh.opts, groups)
	cond.meta = meta
	cond.splits = sh.splits
	cond.met = sh.met
	cond.tr = sh.tr
	return cond
}
