package core

import (
	"bytes"
	"sync"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// condBytes serializes a condensation for byte-level comparison. A
// bytes.Buffer sink cannot fail, so an error here means the groups
// themselves are corrupt — panic so reader goroutines fail loudly too.
func condBytes(c *Condensation) []byte {
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestGenerationMonotoneAndReadStable(t *testing.T) {
	c, err := NewCondenser(5, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Sharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := d.Generation(); g != 0 {
		t.Fatalf("fresh engine generation %d, want 0", g)
	}

	records := clusteredRecords(41, 60, 60)
	for i, x := range records[:20] {
		before := d.Generation()
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
		if after := d.Generation(); after != before+1 {
			t.Fatalf("record %d: generation %d -> %d, want +1 per applied record", i, before, after)
		}
	}

	// AddBatch advances the generation once per applied record; splits
	// ride along inside the apply and add no extra steps, so the counter
	// stays comparable across ingest paths.
	before := d.Generation()
	if err := d.AddBatch(records[20:]); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Generation(), before+uint64(len(records)-20); got != want {
		t.Fatalf("generation after batch %d, want %d", got, want)
	}
	if d.Splits() == 0 {
		t.Fatal("stream produced no splits; the monotonicity claim needs split coverage")
	}

	// Pure reads never move the generation.
	g := d.Generation()
	_ = d.Condensation()
	_ = d.Condensation()
	_ = d.Shard(0)
	_, _, _ = d.ShardCounts(0)
	_ = d.NumGroups()
	_ = d.TotalCount()
	if got := d.Generation(); got != g {
		t.Errorf("pure reads moved the generation %d -> %d", g, got)
	}
}

func TestGenerationSharedAcrossShards(t *testing.T) {
	c, err := NewCondenser(5, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 0 {
		t.Fatalf("fresh engine generation %d, want 0", g)
	}
	records := clusteredRecords(43, 80, 80)
	if err := s.AddBatch(records); err != nil {
		t.Fatal(err)
	}
	// All shards advance one shared counter: the composite generation is
	// the engine-wide applied-record count, not a per-shard sum that
	// could alias distinct states.
	if got, want := s.Generation(), uint64(len(records)); got != want {
		t.Fatalf("generation %d after %d records across shards, want %d", got, len(records), want)
	}
	g := s.Generation()
	_ = s.Condensation()
	for i := 0; i < s.NumShards(); i++ {
		_ = s.Shard(i)
		_, _, _ = s.ShardCounts(i)
	}
	if got := s.Generation(); got != g {
		t.Errorf("pure reads moved the generation %d -> %d", g, got)
	}
}

func TestSnapshotCacheReuseAndInvalidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewCondenser(5, WithSeed(9), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Sharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := clusteredRecords(45, 40, 40)
	if err := d.AddBatch(records); err != nil {
		t.Fatal(err)
	}

	hits := reg.Counter(metricReadCacheHits, "cache", "snapshot")
	misses := reg.Counter(metricReadCacheMisses, "cache", "snapshot")
	h0, m0 := hits.Value(), misses.Value()

	c1 := d.Condensation()
	c2 := d.Condensation()
	if c1 == c2 {
		t.Fatal("snapshots must get fresh Condensation headers")
	}
	if len(c1.groups) == 0 {
		t.Fatal("no groups condensed")
	}
	if c1.groups[0] != c2.groups[0] {
		t.Error("unchanged state recloned its groups — the snapshot cache missed")
	}
	if misses.Value() != m0+1 || hits.Value() != h0+1 {
		t.Errorf("counters after miss+hit: hits %d->%d misses %d->%d",
			h0, hits.Value(), m0, misses.Value())
	}

	// The cached snapshot is immutable: later writes must not reach into
	// bytes already served, and mutating a Groups() clone must not either.
	b1 := condBytes(c1)
	c1.Groups()[0].Add(mat.Vector{1, 1})
	if err := d.Add(mat.Vector{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, condBytes(c1)) {
		t.Error("earlier snapshot changed after a write — cached groups are shared with live state")
	}

	// The write invalidated the cache for the one slot it changed: a new
	// snapshot re-clones that slot, which holds the new record, and shares
	// every other slot's clone with the earlier snapshot.
	c3 := d.Condensation()
	changed := 0
	for i, g := range c3.groups {
		if i >= len(c1.groups) || g.N() != c1.groups[i].N() {
			changed++
			if c3.SharesGroup(c1, i) {
				t.Errorf("slot %d changed but its clone is shared with the earlier snapshot", i)
			}
		} else if !c3.SharesGroup(c1, i) {
			t.Errorf("slot %d is unchanged but was re-cloned", i)
		}
	}
	if changed != 1 {
		t.Errorf("one write changed %d slots, want 1 (the record fell short of a split)", changed)
	}
	if !bytes.Equal(b1, condBytes(c1)) {
		t.Error("earlier snapshot changed after a fresh snapshot shared its clones")
	}
	if c3.TotalCount() != c1.TotalCount()+1 {
		t.Errorf("post-write snapshot has %d records, want %d", c3.TotalCount(), c1.TotalCount()+1)
	}
}

// rebuildFromScratch materializes the merged condensation bypassing the
// snapshot cache entirely, cloning every group under its shard's read
// lock — the pre-cache read path, kept as the coherence test's oracle.
func rebuildFromScratch(s *Dynamic) *Condensation {
	var groups []*stats.Group
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, g := range sh.groups {
			groups = append(groups, g.Clone())
		}
		sh.mu.RUnlock()
	}
	return newCondensation(s.dim, s.k, s.opts, groups)
}

// TestSnapshotCacheCoherentUnderWrites tortures the sharded read path
// with concurrent writers and readers (run under -race in CI): whenever
// the generation is stable across a read window, the cached snapshot
// must be byte-identical to a from-scratch rebuild at that generation;
// after every round's quiescent point it must be, unconditionally.
func TestSnapshotCacheCoherentUnderWrites(t *testing.T) {
	c, err := NewCondenser(4, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(seed uint64, n int) []mat.Vector {
		r := rng.New(seed)
		out := make([]mat.Vector, n)
		for i := range out {
			out[i] = mat.Vector{r.Norm(), r.Norm(), r.Norm()}
		}
		return out
	}
	if err := s.AddBatch(batch(1, 200)); err != nil {
		t.Fatal(err)
	}

	rounds := 30
	if testing.Short() {
		rounds = 6
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			if err := s.AddBatch(batch(uint64(100+round), 32)); err != nil {
				t.Error(err)
			}
		}(round)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					g1 := s.Generation()
					cached := condBytes(s.Condensation())
					scratch := condBytes(rebuildFromScratch(s))
					// Only a stable window proves the pair describes one
					// state; an unstable read still exercises the cache
					// under the race detector.
					if s.Generation() == g1 && !bytes.Equal(cached, scratch) {
						t.Errorf("round %d: cached snapshot at generation %d differs from from-scratch rebuild", round, g1)
						return
					}
				}
			}()
		}
		wg.Wait()

		// Quiescent: cached and from-scratch state must match exactly,
		// and reading both must not move the generation.
		g := s.Generation()
		if !bytes.Equal(condBytes(s.Condensation()), condBytes(rebuildFromScratch(s))) {
			t.Fatalf("round %d: quiescent cached snapshot differs from from-scratch rebuild", round)
		}
		if s.Generation() != g {
			t.Fatalf("round %d: reads moved the generation", round)
		}
	}
}
