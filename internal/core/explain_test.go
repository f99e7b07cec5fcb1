package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"condensation/internal/mat"
)

func buildDynamic(t *testing.T, k, dim int, opts ...CondenserOption) *Dynamic {
	t.Helper()
	c, err := NewCondenser(k, append([]CondenserOption{WithSeed(5)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Sharded(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// releaseOf cuts d's current state as a Release, the way the server does;
// group diagnostics are read from it.
func releaseOf(d *Dynamic) *Release {
	return NewRelease(d.Generation(), d.Condensation(), d.NumShards())
}

// TestGroupIDsStableAndUnique: every live group carries a distinct id,
// and the snapshot annotation mirrors the live ids in slot order. Split
// lineage is checked against the release ledger in the server's
// TestEventsLedgerReplaysRelease.
func TestGroupIDsStableAndUnique(t *testing.T) {
	const k, dim = 5, 3
	d := buildDynamic(t, k, dim)
	stream := gaussianRecords(17, 400, dim)
	for _, x := range stream {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	infos := releaseOf(d).GroupInfos(nil)
	if len(infos) != d.NumGroups() {
		t.Fatalf("GroupInfos returned %d summaries for %d groups", len(infos), d.NumGroups())
	}
	seen := make(map[uint64]bool, len(infos))
	for _, gi := range infos {
		if gi.ID == 0 {
			t.Fatal("live group with id 0 (the no-parent sentinel)")
		}
		if seen[gi.ID] {
			t.Fatalf("duplicate group id %d", gi.ID)
		}
		seen[gi.ID] = true
		if gi.Shard != 0 {
			t.Fatalf("unsharded engine reported shard %d", gi.Shard)
		}
		if gi.Size < k {
			t.Fatalf("group %d reports size %d < k", gi.ID, gi.Size)
		}
	}

	// The snapshot annotation mirrors the live ids in slot order.
	ids := d.Condensation().GroupIDs()
	if len(ids) != len(infos) {
		t.Fatalf("snapshot carries %d ids for %d groups", len(ids), len(infos))
	}
	for i, gi := range infos {
		if ids[i] != gi.ID {
			t.Fatalf("snapshot id[%d] = %d, live id = %d", i, ids[i], gi.ID)
		}
	}
}

// TestShardedGroupIDNoCollision: per-shard id bases keep ids disjoint
// across shards, the shard field matches the owner, and GroupByID
// round-trips through the id's base bits.
func TestShardedGroupIDNoCollision(t *testing.T) {
	const k, dim, shards = 5, 3, 4
	c, err := NewCondenser(k, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(gaussianRecords(23, 900, dim)); err != nil {
		t.Fatal(err)
	}
	rel := releaseOf(s)
	infos := rel.GroupInfos(nil)
	if len(infos) != s.NumGroups() {
		t.Fatalf("GroupInfos returned %d summaries for %d groups", len(infos), s.NumGroups())
	}
	seen := make(map[uint64]bool, len(infos))
	perShard := make(map[int]int)
	for _, gi := range infos {
		if seen[gi.ID] {
			t.Fatalf("duplicate group id %d across shards", gi.ID)
		}
		seen[gi.ID] = true
		if owner := int(gi.ID >> groupIDShardShift); owner != gi.Shard {
			t.Fatalf("id %d encodes shard %d but lives on shard %d", gi.ID, owner, gi.Shard)
		}
		perShard[gi.Shard]++

		det, ok := rel.GroupByID(gi.ID)
		if !ok {
			t.Fatalf("GroupByID(%d) missed a live group", gi.ID)
		}
		if det.ID != gi.ID || det.Size != gi.Size {
			t.Fatalf("GroupByID(%d) = %+v, want summary %+v", gi.ID, det.GroupInfo, gi)
		}
		if len(det.Centroid) != dim {
			t.Fatalf("GroupByID(%d) centroid has wrong dimension", gi.ID)
		}
		if !det.Degenerate && det.CondNumber < 1 {
			t.Fatalf("group %d condition number %v < 1", gi.ID, det.CondNumber)
		}
	}
	if len(perShard) < 2 {
		t.Fatalf("stream landed on %d shard(s); routing hash broken?", len(perShard))
	}
	if _, ok := rel.GroupByID(uint64(shards) << groupIDShardShift); ok {
		t.Fatal("GroupByID accepted an id for a shard that does not exist")
	}
	if _, ok := rel.GroupByID(0); ok {
		t.Fatal("GroupByID accepted the 0 sentinel")
	}
}

// TestGroupIDsNotSerialized: ids are an observe-only annotation — they do
// not survive a checkpoint round-trip, and a restored engine re-allocates
// from scratch without colliding with itself.
func TestGroupIDsNotSerialized(t *testing.T) {
	const k, dim = 5, 3
	d := buildDynamic(t, k, dim)
	for _, x := range gaussianRecords(7, 300, dim) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := d.Condensation().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cond, err := ReadCondensation(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cond.GroupIDs() != nil {
		t.Fatal("restored condensation carries group ids")
	}
	c, err := NewCondenser(cond.K(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := c.DynamicFrom(cond)
	if err != nil {
		t.Fatal(err)
	}
	infos := releaseOf(resumed).GroupInfos(nil)
	seen := make(map[uint64]bool, len(infos))
	for _, gi := range infos {
		if gi.ID == 0 || seen[gi.ID] {
			t.Fatalf("restored engine allocated bad id %d", gi.ID)
		}
		seen[gi.ID] = true
	}
}

// TestExplainMatchesRouting: for a spread of probe records, the dry-run
// read from a Release names the shard and group Add then sends the record
// to, its candidates are the shard's nearest released groups in (distance,
// slot) order, and the predicted outcome is what happens — at 1 and 4
// shards.
func TestExplainMatchesRouting(t *testing.T) {
	const k, dim = 5, 3
	// Routing runs on the float64 index and hashes the whole record
	// (attr=-1); the subtests keep the names they had when a single
	// attribute could also be hashed.
	t.Run("precision=float64", func(t *testing.T) {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/attr=-1", shards), func(t *testing.T) {
				checkExplainRouting(t, k, dim, shards)
			})
		}
	})
}

func checkExplainRouting(t *testing.T, k, dim, shards int) {
	c, err := NewCondenser(k, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Sharded(dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddBatch(gaussianRecords(31, 250*shards, dim)); err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]int{}
	for pi, x := range gaussianRecords(32, 60, dim) {
		top := 3
		if pi%10 == 0 {
			top = ExplainMaxTop
		}
		rel := releaseOf(d)
		ex, err := rel.Explain(x, top)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Generation != d.Generation() {
			t.Fatalf("explanation generation %d, engine at %d", ex.Generation, d.Generation())
		}
		if ex.Shard != d.shardOf(x) {
			t.Fatalf("explained shard %d, ingestion routes to %d", ex.Shard, d.shardOf(x))
		}
		if ex.Routed == nil || *ex.Routed != ex.Candidates[0] {
			t.Fatalf("routed is not the first candidate: %+v", ex)
		}
		if want := nearestReleased(t, rel, ex.Shard, x, top); !slices.Equal(ex.Candidates, want) {
			t.Fatalf("candidates %+v, want %+v", ex.Candidates, want)
		}

		before, beforeID := d.NumGroups(), ex.Routed.ID
		records, _, _ := d.ShardCounts(ex.Shard)
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := d.ShardCounts(ex.Shard); got != records+1 {
			t.Fatalf("explained shard %d went %d -> %d records", ex.Shard, records, got)
		}
		outcomes[ex.Outcome]++
		switch ex.Outcome {
		case ExplainAbsorb:
			if d.NumGroups() != before {
				t.Fatalf("predicted absorb, group count %d -> %d", before, d.NumGroups())
			}
			det, ok := releaseOf(d).GroupByID(beforeID)
			if !ok {
				t.Fatalf("predicted absorb into %d, but it is gone", beforeID)
			}
			if det.Size != ex.Routed.Size+1 {
				t.Fatalf("group %d grew %d -> %d, want +1", beforeID, ex.Routed.Size, det.Size)
			}
		case ExplainSplit:
			if d.NumGroups() != before+1 {
				t.Fatalf("predicted split, group count %d -> %d", before, d.NumGroups())
			}
			if _, ok := releaseOf(d).GroupByID(beforeID); ok {
				t.Fatalf("predicted split of %d, but it survived", beforeID)
			}
		default:
			t.Fatalf("unexpected outcome %q on a populated engine", ex.Outcome)
		}
	}
	if outcomes[ExplainAbsorb] == 0 {
		t.Fatalf("no probe was absorbed: %v", outcomes)
	}
}

// TestExplainTieMatchesRouting: splitting a group of identical records
// yields two children with one centroid, so every record is equidistant
// from both. The routers take the lower slot; Explain must route there
// too.
func TestExplainTieMatchesRouting(t *testing.T) {
	const k = 2
	d := buildDynamic(t, k, 2)
	for i := 0; i < 2*k; i++ {
		if err := d.Add(mat.Vector{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	x := mat.Vector{0, 0}
	ex, err := releaseOf(d).Explain(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Candidates) != 2 || ex.Candidates[0].DistanceSq != ex.Candidates[1].DistanceSq {
		t.Fatalf("want two equidistant candidates: %+v", ex)
	}
	if err := d.Add(x); err != nil {
		t.Fatal(err)
	}
	if det, ok := releaseOf(d).GroupByID(ex.Routed.ID); !ok || det.Size != k+1 {
		t.Fatalf("explained group %d = %+v after the absorb, want %d records", ex.Routed.ID, det, k+1)
	}
}

// nearestReleased is the brute-force reference for Explain's candidates:
// every released group of shard s sorted by (squared distance, release
// position), cut to top.
func nearestReleased(t *testing.T, rel *Release, s int, x mat.Vector, top int) []ExplainCandidate {
	t.Helper()
	shard := rel.Shard(s)
	cents, err := shard.Centroids()
	if err != nil {
		t.Fatal(err)
	}
	ids := shard.GroupIDs()
	var all []ExplainCandidate
	for i, c := range cents {
		all = append(all, ExplainCandidate{ID: ids[i], DistanceSq: x.DistSq(c), Size: rel.ShardSizes(s)[i]})
	}
	slices.SortStableFunc(all, func(a, b ExplainCandidate) int { return cmp.Compare(a.DistanceSq, b.DistanceSq) })
	return all[:min(top, len(all))]
}

// TestExplainFoundOnEmpty: an empty engine's Release explains every record
// as a founding ingest; a malformed record or a top above the cap is an
// error.
func TestExplainFoundOnEmpty(t *testing.T) {
	d := buildDynamic(t, 5, 3)
	rel := releaseOf(d)
	ex, err := rel.Explain(mat.Vector{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Outcome != ExplainFound || ex.Routed != nil || ex.Candidates != nil || ex.Groups != 0 {
		t.Fatalf("empty engine explanation = %+v, want bare found", ex)
	}
	if _, err := rel.Explain(mat.Vector{1, 2}, 0); err == nil {
		t.Fatal("Explain accepted a record of the wrong dimension")
	}
	if _, err := rel.Explain(mat.Vector{1, 2, math.NaN()}, 0); err == nil {
		t.Fatal("Explain accepted a non-finite record")
	}
	if _, err := rel.Explain(mat.Vector{1, 2, 3}, ExplainMaxTop+1); err == nil {
		t.Fatalf("Explain accepted top = %d above the cap", ExplainMaxTop+1)
	}
}

// TestExplainSideEffectFree: hammering the Explain, GroupInfos and
// GroupByID of releases cut from the engine between checkpoint encodes
// must leave the bytes bit-identical. The sharded variant cuts and reads
// the releases concurrently with ingest on the engine's own locks, so the
// race detector also proves the read-lock contract.
func TestExplainSideEffectFree(t *testing.T) {
	const k, dim = 5, 3
	t.Run("dynamic", func(t *testing.T) {
		d := buildDynamic(t, k, dim)
		for _, x := range gaussianRecords(41, 300, dim) {
			if err := d.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		before := checkpointBytes(t, d)
		probes := gaussianRecords(42, 50, dim)
		rel := releaseOf(d)
		for _, x := range probes {
			if _, err := rel.Explain(x, 10); err != nil {
				t.Fatal(err)
			}
		}
		for _, gi := range rel.GroupInfos(nil) {
			rel.GroupByID(gi.ID)
		}
		if !bytes.Equal(before, checkpointBytes(t, d)) {
			t.Fatal("explainability reads changed checkpoint bytes")
		}
		// The rng stream is untouched too: ingest after the dry-runs must
		// match an engine that never explained anything.
		ref := buildDynamic(t, k, dim)
		for _, x := range gaussianRecords(41, 300, dim) {
			if err := ref.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range probes {
			if err := d.Add(x); err != nil {
				t.Fatal(err)
			}
			if err := ref.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(dynamicFingerprint(t, d), dynamicFingerprint(t, ref)) {
			t.Fatal("post-explain ingest diverged from the never-explained engine")
		}
	})
	t.Run("sharded-concurrent", func(t *testing.T) {
		c, err := NewCondenser(k, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Sharded(dim, 4)
		if err != nil {
			t.Fatal(err)
		}
		stream := gaussianRecords(51, 1200, dim)
		if err := s.AddBatch(stream[:400]); err != nil {
			t.Fatal(err)
		}
		probes := gaussianRecords(52, 200, dim)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for lo := 400; lo < len(stream); lo += 100 {
				if err := s.AddBatch(stream[lo : lo+100]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, x := range probes {
				rel := releaseOf(s)
				if _, err := rel.Explain(x, 5); err != nil {
					t.Error(err)
					return
				}
				for _, gi := range rel.GroupInfos(nil) {
					rel.GroupByID(gi.ID)
				}
			}
		}()
		wg.Wait()
		// Same stream without any explain traffic: bit-identical state.
		c2, err := NewCondenser(k, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c2.Sharded(dim, 4)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(stream); lo += 100 {
			if err := ref.AddBatch(stream[lo : lo+100]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(checkpointBytes(t, s), checkpointBytes(t, ref)) {
			t.Fatal("checkpoint bytes differ after concurrent explain traffic")
		}
	})
}

// TestGroupLineage: split children record a parent that is no longer
// live.
func TestGroupLineage(t *testing.T) {
	const k, dim = 5, 2
	d := buildDynamic(t, k, dim)
	for _, x := range gaussianRecords(61, 600, dim) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	infos := releaseOf(d).GroupInfos(nil)
	live := make(map[uint64]bool, len(infos))
	for _, gi := range infos {
		live[gi.ID] = true
	}
	children := 0
	for _, gi := range infos {
		if gi.Parent != 0 {
			children++
			if live[gi.Parent] {
				t.Fatalf("split child %d names live parent %d", gi.ID, gi.Parent)
			}
		}
	}
	if children == 0 {
		t.Fatal("600 records produced no split children")
	}
}

// TestDiagnosticsWithholdBelowK: a pure-stream engine's first group is one
// raw record, so until it holds k records no diagnostic may summarize it,
// look it up, or offer it as a routing candidate: Explain answers found,
// as the empty Release implies.
func TestDiagnosticsWithholdBelowK(t *testing.T) {
	const k, dim = 10, 2
	d := buildDynamic(t, k, dim)
	if err := d.Add(mat.Vector{0.3141592653589793, 0.2718281828459045}); err != nil {
		t.Fatal(err)
	}
	if infos := releaseOf(d).GroupInfos(nil); len(infos) != 0 {
		t.Fatalf("GroupInfos summarized %d groups below k", len(infos))
	}
	id := d.Condensation().GroupIDs()[0]
	if _, ok := releaseOf(d).GroupByID(id); ok {
		t.Fatalf("GroupByID(%d) served a group below k", id)
	}
	ex, err := releaseOf(d).Explain(mat.Vector{0.5, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Routed != nil || len(ex.Candidates) != 0 || ex.Groups != 0 || ex.Outcome != ExplainFound {
		t.Fatalf("explain over a group below k: %+v", ex)
	}

	for _, x := range gaussianRecords(3, k-1, dim) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if infos := releaseOf(d).GroupInfos(nil); len(infos) != 1 || infos[0].ID != id || infos[0].Size != k {
		t.Fatalf("GroupInfos at k records = %+v, want group %d of size %d", infos, id, k)
	}
	if det, ok := releaseOf(d).GroupByID(id); !ok || det.Size != k {
		t.Fatalf("GroupByID(%d) at k records = %+v, %v", id, det, ok)
	}
	ex, err = releaseOf(d).Explain(mat.Vector{0.5, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Routed == nil || ex.Routed.ID != id || len(ex.Candidates) != 1 || ex.Outcome != ExplainAbsorb {
		t.Fatalf("explain at k records: %+v", ex)
	}
}
