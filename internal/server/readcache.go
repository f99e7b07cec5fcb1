package server

import (
	"fmt"
	"strconv"
	"sync"

	"condensation/internal/audit"
	"condensation/internal/core"
	"condensation/internal/telemetry"
)

// respBody is a fully prepared response: the encoded bytes plus
// header-ready values rendered once at build time, so serving a cache
// hit assigns header slices instead of re-formatting strings on every
// request. The slices are shared across responses and must never be
// mutated.
type respBody struct {
	data  []byte
	cl    []string // {"<len(data)>"} — Content-Length, preformatted
	etag  string   // `"<generation>"`; checkpoints only
	etagH []string // {etag} — ETag header value, preformatted
}

// newRespBody prepares an encoded body for serving.
func newRespBody(data []byte) *respBody {
	return &respBody{data: data, cl: []string{strconv.Itoa(len(data))}}
}

// newCheckpointBody prepares an encoded checkpoint for serving under its
// generation's strong validator.
func newCheckpointBody(data []byte, gen uint64) *respBody {
	b := newRespBody(data)
	b.etag = `"` + strconv.FormatUint(gen, 10) + `"`
	b.etagH = []string{b.etag}
	return b
}

// readCache memoizes the server's derived read artifacts — encoded
// checkpoint bytes, encoded stats bodies, synthesized snapshot bodies,
// and audit reports — keyed by the engine's mutation generation. The
// cache serves one generation only: the first store or probe at a newer
// generation drops everything from the older one, except that each
// seed's latest snapshot stays as the base its next rebuild reuses
// (snapshotEntry), so memory stays bounded by the artifacts of the
// current state plus at most maxSnapshotSeeds bases. Entries are immutable
// once stored (byte slices are handed to clients as-is and never
// written again), which is what makes serving them without copying safe.
//
// Stores carry the generation their artifact was built from and are
// refused when the cache has already advanced past it — a slow reader
// finishing a build of generation g after a writer moved the engine to
// g+n must not regress the cache, or later probes at g+n would serve
// stale bytes under a fresh ETag.
type readCache struct {
	mu  sync.Mutex
	gen uint64
	// valid distinguishes "empty cache" from "cache at generation 0" —
	// a freshly constructed engine legitimately serves generation 0.
	valid bool
	// jr, when set, records one cache_invalidation journal event each time
	// a generation step drops prepared artifacts. The journal has its own
	// lock and never calls back into the cache, so recording under mu is
	// safe.
	jr *telemetry.Journal

	checkpoint   *respBody
	statsMerged  *respBody
	statsByShard *respBody
	snapshots    map[uint64]*snapshotEntry // by synthesis seed
	audits       *auditEntry
}

// maxSnapshotSeeds bounds the synthesis memo: clients are expected to poll
// a few fixed seeds, but seeds come from the URL, so an adversarial seed
// sweep must not grow memory without bound. When the map fills, it resets
// rather than evicts — simple, and a reset costs each seed no more than
// its reuse base: its next miss builds from scratch.
const maxSnapshotSeeds = 32

// snapshotEntry is one seed's latest snapshot build. Its body is served
// while the engine stays at gen, if the build saw gen throughout. A
// generation step stops serving it but keeps it as the base for the next
// miss at the same seed, which copies the encoded rows of every group it
// shares with cond instead of synthesizing and encoding them again (see
// buildSnapshot). Reuse is decided by group identity under the same seed,
// never by generation, so any completed build is a valid base.
type snapshotEntry struct {
	gen    uint64
	served bool
	body   *respBody
	// cond is the condensation the body was synthesized from; offs are
	// its groups' row offsets in the body (see encodeSnapshotFrom).
	cond *core.Condensation
	offs []int
}

// auditEntry is one generation's memoized audit pass: the merged report
// plus the per-shard reports a sharded Audit() publishes alongside it.
// reservoirSeen extends the key: the audit reads the KS reservoir, which
// is fed after the engine lock is released, so the same generation can
// legitimately produce two different reports if the reservoir advanced
// in between.
type auditEntry struct {
	reservoirSeen int
	merged        *audit.Report
	shards        []*audit.Report
}

// step advances the cache to generation gen, dropping every entry from an
// older generation, and reports whether the cache now holds gen. A false
// return means gen is older than what the cache has moved on to — the
// caller must neither read nor store. Caller holds mu.
func (c *readCache) step(gen uint64) bool {
	if !c.valid || gen > c.gen {
		if c.jr != nil && c.valid && gen > c.gen && c.holdsArtifacts() {
			c.jr.Record(telemetry.JournalEvent{
				Type:       telemetry.EventCacheInvalidation,
				Shard:      telemetry.JournalShardNone,
				Generation: gen,
				Detail:     fmt.Sprintf("read cache dropped generation %d artifacts (engine at %d)", c.gen, gen),
			})
		}
		c.gen, c.valid = gen, true
		c.checkpoint = nil
		c.statsMerged = nil
		c.statsByShard = nil
		c.audits = nil
		return true
	}
	return gen == c.gen
}

// holdsArtifacts reports whether any prepared artifact is served at the
// cache's generation — an invalidation that drops nothing is not worth a
// journal entry. Snapshot entries kept only as reuse bases do not count.
func (c *readCache) holdsArtifacts() bool {
	if c.checkpoint != nil || c.statsMerged != nil || c.statsByShard != nil || c.audits != nil {
		return true
	}
	for _, e := range c.snapshots {
		if e.served && e.gen == c.gen {
			return true
		}
	}
	return false
}

// checkpointAt returns the prepared checkpoint for generation gen, if
// cached.
func (c *readCache) checkpointAt(gen uint64) (*respBody, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.step(gen) || c.checkpoint == nil {
		return nil, false
	}
	return c.checkpoint, true
}

// storeCheckpoint caches the prepared checkpoint built from generation
// gen, unless the cache has already advanced past it.
func (c *readCache) storeCheckpoint(gen uint64, b *respBody) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.step(gen) {
		c.checkpoint = b
	}
}

// statsAt returns the prepared stats body (merged or by-shard variant)
// for generation gen, if cached.
func (c *readCache) statsAt(gen uint64, byShard bool) (*respBody, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.step(gen) {
		return nil, false
	}
	b := c.statsMerged
	if byShard {
		b = c.statsByShard
	}
	return b, b != nil
}

// storeStats caches one variant of the prepared stats body for generation
// gen.
func (c *readCache) storeStats(gen uint64, byShard bool, b *respBody) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.step(gen) {
		return
	}
	if byShard {
		c.statsByShard = b
	} else {
		c.statsMerged = b
	}
}

// snapshotAt returns seed's snapshot entry and whether its body may be
// served at generation gen. An entry that may not be served is still the
// reuse base for a rebuild.
func (c *readCache) snapshotAt(gen, seed uint64) (*snapshotEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.snapshots[seed]
	if !c.step(gen) {
		return e, false
	}
	return e, e != nil && e.served && e.gen == gen
}

// storeSnapshot installs a snapshot build as seed's entry. It is served
// only if it was built from one generation throughout and the cache has
// not advanced past it; either way it becomes the seed's reuse base,
// unless the seed already holds a build of a later generation.
func (c *readCache) storeSnapshot(seed uint64, e *snapshotEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.served && !c.step(e.gen) {
		e.served = false
	}
	if old := c.snapshots[seed]; old != nil && old.gen > e.gen {
		return
	}
	if len(c.snapshots) >= maxSnapshotSeeds && c.snapshots[seed] == nil {
		c.snapshots = nil
	}
	if c.snapshots == nil {
		c.snapshots = make(map[uint64]*snapshotEntry)
	}
	c.snapshots[seed] = e
}

// auditAt returns the memoized audit pass for (gen, reservoirSeen), if
// cached.
func (c *readCache) auditAt(gen uint64, reservoirSeen int) (*auditEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.step(gen) || c.audits == nil || c.audits.reservoirSeen != reservoirSeen {
		return nil, false
	}
	return c.audits, true
}

// storeAudit caches one audit pass for (gen, reservoirSeen).
func (c *readCache) storeAudit(gen uint64, e *auditEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.step(gen) {
		c.audits = e
	}
}

// cacheMetrics is one memo's hit/miss counter pair under its cache="kind"
// labels. Handles are nil-safe, so the zero value records nothing.
type cacheMetrics struct {
	hits   *telemetry.Counter
	misses *telemetry.Counter
}

// newCacheMetrics resolves the counter pair for one cache kind.
func newCacheMetrics(reg *telemetry.Registry, kind string) cacheMetrics {
	return cacheMetrics{
		hits:   reg.Counter(MetricReadCacheHits, "cache", kind),
		misses: reg.Counter(MetricReadCacheMisses, "cache", kind),
	}
}
