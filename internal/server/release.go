package server

import (
	"fmt"
	"maps"
	"strconv"
	"sync"

	"condensation/internal/audit"
	"condensation/internal/core"
	"condensation/internal/telemetry"
)

// Every read endpoint serves one value: the release, a core.Release — the
// k-gated cut of the engine at one generation — plus the artifacts derived
// from it. Each artifact (a snapshot body per seed, the checkpoint, the
// stats bodies, the audit reports) is built on its first request and then
// replayed byte for byte while the release is current, so repeated reads
// of unchanged state serve stored bytes instead of re-cloning and
// re-encoding O(state). Artifacts are immutable once stored: their byte
// slices are handed to clients as-is and never written again.
//
// The server holds one current release. A read whose generation matches
// it is a hit; otherwise the read cuts a new one: read the generation,
// snapshot the engine, re-read the generation. Writers run concurrently
// with readers, so a moved generation means the cut may straddle a
// mutation — it is retried once, and if the generation moves again the
// cut is served to that one request but never installed, and its
// checkpoint carries no ETag. Installs take one mutex, which hits never
// take, and only a newer generation wins, so a slow cut can never replace
// a newer release.
//
// A new release inherits nothing but the previous release's snapshot
// entries, as reuse bases: the next miss at the same seed shares the base's
// blocks, or copies the rows, of every group the two cuts share (see
// buildSnapshot). Every other artifact of the old release dies with it.

// respBody is a fully prepared response: the encoded bytes plus
// header-ready values rendered once at build time, so serving a hit
// assigns header slices instead of re-formatting strings on every
// request. The slices are shared across responses and must never be
// mutated.
type respBody struct {
	parts [][]byte // the body in write order; one part except for snapshots
	cl    []string // {"<total length of parts>"} — Content-Length, preformatted
	etag  string   // `"<generation>"`; checkpoints of installable cuts only
	etagH []string // {etag} — ETag header value, preformatted
}

// newRespBody prepares an encoded body, given as the parts to write in
// order, for serving.
func newRespBody(parts ...[]byte) *respBody {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return &respBody{parts: parts, cl: []string{strconv.Itoa(n)}}
}

// newCheckpointBody prepares an encoded checkpoint for serving under its
// generation's strong validator.
func newCheckpointBody(data []byte, gen uint64) *respBody {
	b := newRespBody(data)
	b.etag = `"` + strconv.FormatUint(gen, 10) + `"`
	b.etagH = []string{b.etag}
	return b
}

// release is one core.Release with the artifacts derived from it so far.
type release struct {
	*core.Release
	// stable reports that the engine sat at the release's generation for
	// the whole cut, so the release is exactly that generation's state.
	// Only a stable release is installed or stamps an ETag.
	stable bool

	mu sync.Mutex
	// snapshots holds one entry per synthesis seed: built from this
	// release, or inherited from an older one as a reuse base only.
	snapshots   map[uint64]*snapshotEntry
	checkpoint  *respBody
	stats       [2]*respBody // merged, by_shard
	audit       *audit.Report
	shardAudits *[]*audit.Report
}

// maxSnapshotSeeds bounds the snapshot entries a release holds: clients
// are expected to poll a few fixed seeds, but seeds come from the URL, so
// an adversarial seed sweep must not grow memory without bound. When the
// map fills, it resets rather than evicts — simple, and a reset costs
// each seed no more than its reuse base: its next miss builds from
// scratch.
const maxSnapshotSeeds = 32

// snapshotEntry is one seed's latest snapshot build: the body is served
// while rel is the current release, and kept as the reuse base of the
// seed's next miss after that. Reuse is decided by group identity under
// the same seed, never by generation, so any completed build is a valid
// base.
type snapshotEntry struct {
	rel *core.Release
	// blocks are the body's rows (see snapshotBlock), shared by pointer
	// with the entries built before and after this one wherever their
	// groups are unchanged; body writes them between header and trailer.
	blocks []*snapshotBlock
	body   *respBody
}

// newRelease wraps a cut, inheriting prev's snapshot entries as bases.
func newRelease(rel *core.Release, stable bool, prev *release) *release {
	r := &release{Release: rel, stable: stable}
	if prev != nil {
		prev.mu.Lock()
		r.snapshots = maps.Clone(prev.snapshots)
		prev.mu.Unlock()
	}
	return r
}

// release returns the release of the engine's current state, cutting and
// installing a new one when the engine has moved past the current one.
func (s *Server) release() *release {
	for attempt := 0; ; attempt++ {
		gen := s.eng.Generation()
		cur := s.cur.Load()
		if cur != nil && cur.Generation() >= gen {
			return cur
		}
		cut := s.eng.Condensation()
		stable := s.eng.Generation() == gen
		r := newRelease(core.NewRelease(gen, cut, s.shards), stable, cur)
		if stable {
			return s.install(r)
		}
		if attempt >= 1 {
			return r
		}
	}
}

// install makes r the current release unless one of the same or a newer
// generation is already installed, and returns the release to serve. Under
// installMu and before the swap, so ring order is release order, it sets
// the smallest-group gauge and journals group_released for each id new to
// r, group_retired for each id gone, and release_replaced when the
// replaced release served artifacts.
func (s *Server) install(r *release) *release {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	cur := s.cur.Load()
	if cur != nil && cur.Generation() >= r.Generation() {
		if cur.Generation() == r.Generation() {
			return cur
		}
		return r
	}
	s.releaseMinSize.Set(float64(r.Condensation().MinGroupSize()))
	if s.jr != nil {
		var prev *core.Release
		if cur != nil {
			prev = cur.Release
		}
		r.Changes(prev, func(gi core.GroupInfo, released bool) {
			ev := telemetry.JournalEvent{Type: telemetry.EventGroupRetired, Shard: gi.Shard, Generation: r.Generation(), Group: gi.ID}
			if released {
				ev.Type, ev.Parent = telemetry.EventGroupReleased, gi.Parent
			}
			s.jr.Record(ev)
		})
		if cur != nil && cur.servedArtifacts() {
			s.jr.Record(telemetry.JournalEvent{
				Type:       telemetry.EventReleaseReplaced,
				Shard:      telemetry.JournalShardNone,
				Generation: r.Generation(),
				Detail: fmt.Sprintf("release of generation %d replaced the one of generation %d and its served artifacts",
					r.Generation(), cur.Generation()),
			})
		}
	}
	s.cur.Store(r)
	return r
}

// installedGeneration returns the installed release's generation, or 0
// before the first install.
func (s *Server) installedGeneration() uint64 {
	if cur := s.cur.Load(); cur != nil {
		return cur.Generation()
	}
	return 0
}

// servedArtifacts reports whether the release built any artifact — a
// replacement that drops nothing is not worth a journal entry. Inherited
// snapshot bases do not count.
func (r *release) servedArtifacts() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.checkpoint != nil || r.stats[0] != nil || r.stats[1] != nil || r.audit != nil || r.shardAudits != nil {
		return true
	}
	for _, e := range r.snapshots {
		if e.rel == r.Release {
			return true
		}
	}
	return false
}

// memo returns *slot, building and storing it on first use and counting
// the outcome in m. The build runs outside the lock, so a slow build never
// blocks hits on the release's other artifacts; concurrent first uses may
// both build, and the first store wins.
func memo[T any](r *release, slot **T, m cacheMetrics, build func() (*T, error)) (*T, error) {
	r.mu.Lock()
	v := *slot
	r.mu.Unlock()
	if v != nil {
		m.hits.Inc()
		return v, nil
	}
	m.misses.Inc()
	v, err := build()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if *slot == nil {
		*slot = v
	} else {
		v = *slot
	}
	r.mu.Unlock()
	return v, nil
}

// snapshot returns the release's /v1/snapshot body for one synthesis
// seed. A miss rebuilds the body from the seed's previous build
// (buildSnapshot), synthesizing and encoding only the groups that changed
// since and allocating only the blocks that hold them.
func (r *release) snapshot(seed uint64, m cacheMetrics) (*respBody, error) {
	r.mu.Lock()
	base := r.snapshots[seed]
	r.mu.Unlock()
	if base != nil && base.rel == r.Release {
		m.hits.Inc()
		return base.body, nil
	}
	m.misses.Inc()
	if r.Condensation().NumGroups() == 0 {
		return nil, errNoRecords
	}
	e, err := buildSnapshot(r.Release, seed, base)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if len(r.snapshots) >= maxSnapshotSeeds && r.snapshots[seed] == nil {
		r.snapshots = nil
	}
	if r.snapshots == nil {
		r.snapshots = make(map[uint64]*snapshotEntry)
	}
	r.snapshots[seed] = e
	r.mu.Unlock()
	return e.body, nil
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
