package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// checkpointBytes serializes an engine's merged snapshot — the exact
// byte-level fingerprint the reproducibility contract is stated over.
func checkpointBytes(t *testing.T, eng Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.Condensation().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineInterfaceEquivalence is the compatibility contract of the
// 1-shard engine: every Condenser builder — Sharded from empty,
// DynamicFrom and ShardedFrom from a static bootstrap, and Bootstrap over
// raw records — yields the same groups, rng stream, counters, and
// serialized snapshot as a reference built by the bare constructor over
// one rng stream and fed by a sequential Add loop, through both the Add
// loop and the batch path.
func TestEngineInterfaceEquivalence(t *testing.T) {
	const k, dim, seed = 6, 4, 5
	stream := gaussianRecords(7, 900, dim)
	raw := gaussianRecords(8, 120, dim)
	initial, err := condense(raw, k, rng.New(9), Options{})
	if err != nil {
		t.Fatal(err)
	}

	type builder func(c *Condenser) (*Dynamic, error)
	starts := map[string]struct {
		// ref builds the reference engine with the bare constructor.
		ref      func() (*Dynamic, error)
		builders map[string]builder
	}{
		"empty": {
			ref: func() (*Dynamic, error) {
				return newDynamic(dim, k, Options{}, nil, []*rng.Source{rng.New(seed)})
			},
			builders: map[string]builder{
				"Sharded(1)": func(c *Condenser) (*Dynamic, error) { return c.Sharded(dim, 1) },
			},
		},
		"bootstrap": {
			ref: func() (*Dynamic, error) {
				return newDynamic(dim, k, Options{}, initial.Groups(), []*rng.Source{rng.New(seed)})
			},
			builders: map[string]builder{
				"DynamicFrom":    func(c *Condenser) (*Dynamic, error) { return c.DynamicFrom(initial) },
				"ShardedFrom(1)": func(c *Condenser) (*Dynamic, error) { return c.ShardedFrom(initial, 1) },
			},
		},
		// Bootstrap's static pass draws from the stream the engine then
		// maintains its groups with.
		"static": {
			ref: func() (*Dynamic, error) {
				r := rng.New(seed)
				cond, err := condense(raw, k, r, Options{})
				if err != nil {
					return nil, err
				}
				return newDynamic(dim, k, Options{}, cond.Groups(), []*rng.Source{r})
			},
			builders: map[string]builder{
				"Bootstrap": func(c *Condenser) (*Dynamic, error) { return c.Bootstrap(raw) },
			},
		},
	}

	for startName, st := range starts {
		for _, batch := range []bool{false, true} {
			name := startName + "/add"
			if batch {
				name = startName + "/batch"
			}
			t.Run(name, func(t *testing.T) {
				c, err := NewCondenser(k, WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := st.ref()
				if err != nil {
					t.Fatal(err)
				}
				if err := addEach(ref, stream); err != nil {
					t.Fatal(err)
				}
				want := checkpointBytes(t, ref)
				for name, build := range st.builders {
					eng, err := build(c)
					if err != nil {
						t.Fatal(err)
					}
					if batch {
						err = eng.AddBatch(stream)
					} else {
						err = addEach(eng, stream)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := checkpointBytes(t, eng); !bytes.Equal(got, want) {
						t.Fatalf("%s: snapshot differs from the Add-loop reference (%d vs %d bytes)", name, len(got), len(want))
					}
					if eng.NumShards() != 1 || eng.TotalCount() != ref.TotalCount() ||
						eng.NumGroups() != ref.NumGroups() || eng.Splits() != ref.Splits() {
						t.Fatalf("%s: counters (shards=%d n=%d g=%d s=%d), reference (n=%d g=%d s=%d)",
							name, eng.NumShards(), eng.TotalCount(), eng.NumGroups(), eng.Splits(),
							ref.TotalCount(), ref.NumGroups(), ref.Splits())
					}
				}
			})
		}
	}
}

// TestShardedMergedSnapshotDeterministic is the reproducibility contract
// at every shard count: the same seed, shard count, and stream produce a
// bit-identical merged snapshot — across independent engines, across
// batch slicings, and across the Add/AddBatch paths —
// and every shard independently upholds the paper's k ≤ n ≤ 2k−1 group
// size invariant.
func TestShardedMergedSnapshotDeterministic(t *testing.T) {
	const k, dim = 6, 4
	stream := gaussianRecords(11, 1600, dim)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			build := func(t *testing.T) *Dynamic {
				t.Helper()
				c, err := NewCondenser(k, WithSeed(3))
				if err != nil {
					t.Fatal(err)
				}
				s, err := c.Sharded(dim, shards)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			a := build(t)
			for lo := 0; lo < len(stream); lo += 128 {
				hi := lo + 128
				if hi > len(stream) {
					hi = len(stream)
				}
				if err := a.AddBatch(stream[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}

			b := build(t)
			if err := b.AddBatch(stream); err != nil {
				t.Fatal(err)
			}

			c := build(t)
			if err := addEach(c, stream); err != nil {
				t.Fatal(err)
			}

			ref := checkpointBytes(t, a)
			if !bytes.Equal(ref, checkpointBytes(t, b)) {
				t.Fatal("merged snapshot differs across batch slicing")
			}
			if !bytes.Equal(ref, checkpointBytes(t, c)) {
				t.Fatal("merged snapshot differs between AddBatch and Add loop")
			}
			// Snapshotting must be repeatable and observe-only.
			if !bytes.Equal(ref, checkpointBytes(t, a)) {
				t.Fatal("repeated snapshots of the same state differ")
			}

			total, groups := 0, 0
			for i := 0; i < a.NumShards(); i++ {
				shard := a.Shard(i)
				if shard.NumGroups() == 0 {
					t.Fatalf("shard %d received no records", i)
				}
				for j, g := range shard.Groups() {
					if n := g.N(); n < k || n > 2*k-1 {
						t.Fatalf("shard %d group %d holds %d records, outside [%d,%d]", i, j, n, k, 2*k-1)
					}
				}
				total += shard.TotalCount()
				groups += shard.NumGroups()
			}
			if total != len(stream) {
				t.Fatalf("shards condensed %d records in total, want %d", total, len(stream))
			}
			if got := a.TotalCount(); got != len(stream) {
				t.Fatalf("TotalCount = %d, want %d", got, len(stream))
			}
			if got := a.NumGroups(); got != groups {
				t.Fatalf("NumGroups = %d, want per-shard sum %d", got, groups)
			}
		})
	}
}

// TestShardedRoutingDeterministic pins the routing rule: the hash depends
// only on record values, so identical records route identically on
// independent engines.
func TestShardedRoutingDeterministic(t *testing.T) {
	const dim = 5
	c, err := NewCondenser(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Sharded(dim, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Sharded(dim, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range gaussianRecords(13, 200, dim) {
		if a.shardOf(x) != b.shardOf(x) {
			t.Fatal("identical records routed to different shards on independent engines")
		}
	}
}

// TestShardedValidation covers the construction and ingest error paths.
func TestShardedValidation(t *testing.T) {
	c, err := NewCondenser(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sharded(2, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := c.ShardedFrom(nil, 2); err == nil {
		t.Fatal("nil initial condensation accepted")
	}
	// Groups formed at another k hold the wrong number of records for
	// this engine's split rule, so seeding refuses them.
	initial, err := condense(gaussianRecords(67, 60, 2), 4, rng.New(69), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DynamicFrom(initial); err == nil || !strings.Contains(err.Error(), "k = 4") {
		t.Fatalf("DynamicFrom with k 4 ≠ 3: err = %v", err)
	}
	if _, err := c.ShardedFrom(initial, 2); err == nil {
		t.Fatal("ShardedFrom accepted a k mismatch")
	}
	s, err := c.Sharded(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mat.Vector{1}); err == nil {
		t.Fatal("wrong-dimension record accepted")
	}
	if err := s.AddBatch([]mat.Vector{{1, 2}, {3}}); err == nil {
		t.Fatal("batch with wrong-dimension record accepted")
	}
	if s.TotalCount() != 0 {
		t.Fatal("rejected batch left records behind")
	}
	if err := s.AddBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestShardedFromDistributesGroups seeds a sharded engine from a static
// condensation and checks the round-robin deal: every initial group lands
// on a shard, none are lost or duplicated, and more shards than groups
// leaves the excess shards empty but serviceable.
func TestShardedFromDistributesGroups(t *testing.T) {
	const k, dim = 5, 3
	initial, err := condense(gaussianRecords(19, 60, dim), k, rng.New(21), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCondenser(k, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, initial.NumGroups() + 3} {
		s, err := c.ShardedFrom(initial, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumGroups(); got != initial.NumGroups() {
			t.Fatalf("%d shards: %d groups after seeding, want %d", shards, got, initial.NumGroups())
		}
		if got := s.TotalCount(); got != initial.TotalCount() {
			t.Fatalf("%d shards: %d records after seeding, want %d", shards, got, initial.TotalCount())
		}
		if err := addEach(s, gaussianRecords(23, 40, dim)); err != nil {
			t.Fatalf("%d shards: ingest after seeding: %v", shards, err)
		}
	}
}

// TestShardedTelemetryLabels checks the metric contract: with N ≥ 2 every
// engine series carries a shard label per shard, while a single-shard
// engine registers the exact unlabeled series Dynamic does.
func TestShardedTelemetryLabels(t *testing.T) {
	const dim = 3
	c, err := NewCondenser(3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	stream := gaussianRecords(29, 300, dim)

	expo := func(t *testing.T, shards int) string {
		t.Helper()
		reg := telemetry.NewRegistry()
		s, err := c.Sharded(dim, shards)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTelemetry(reg)
		if err := s.AddBatch(stream); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	single := expo(t, 1)
	if !strings.Contains(single, "condense_stream_records_total 300") {
		t.Fatalf("single shard: unlabeled stream counter missing:\n%s", single)
	}
	if strings.Contains(single, `shard="`) {
		t.Fatal("single shard: unexpected shard label")
	}

	multi := expo(t, 4)
	for i := 0; i < 4; i++ {
		if !strings.Contains(multi, fmt.Sprintf(`condense_stream_records_total{shard="%d"}`, i)) {
			t.Fatalf("4 shards: stream counter for shard %d missing:\n%s", i, multi)
		}
		if !strings.Contains(multi, fmt.Sprintf(`condense_groups{shard="%d"}`, i)) {
			t.Fatalf("4 shards: group gauge for shard %d missing", i)
		}
	}
}

// TestDynamicTotalCountCached pins the cached running count against the
// ground truth (the sum over live group statistics) through founding,
// routing, splitting, batch ingest, and bootstrap seeding.
func TestDynamicTotalCountCached(t *testing.T) {
	const k, dim = 4, 3
	groundTruth := func(d *Dynamic) int {
		var n int
		for _, g := range d.shards[0].groups {
			n += g.N()
		}
		return n
	}

	d, err := emptyDynamic(dim, k, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range gaussianRecords(33, 200, dim) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
		if got, want := d.TotalCount(), groundTruth(d); got != want || want != i+1 {
			t.Fatalf("after %d adds: TotalCount = %d, groups hold %d", i+1, got, want)
		}
	}
	if got, want := d.Splits(), d.NumGroups()-1; got != want {
		t.Fatalf("Splits = %d, want %d (empty start: one split per extra group)", got, want)
	}
	if err := d.AddBatch(gaussianRecords(35, 300, dim)); err != nil {
		t.Fatal(err)
	}
	if got, want := d.TotalCount(), groundTruth(d); got != want || want != 500 {
		t.Fatalf("after batch: TotalCount = %d, groups hold %d, want 500", got, want)
	}

	initial, err := condense(gaussianRecords(37, 90, dim), k, rng.New(39), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := dynamicFrom(initial, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seeded.TotalCount(), groundTruth(seeded); got != want || want != 90 {
		t.Fatalf("seeded: TotalCount = %d, groups hold %d, want 90", got, want)
	}
}

// TestShardCounts: the cheap per-shard accessor must agree with the full
// snapshots on both engine shapes, and its totals with the engine-wide
// counts.
func TestShardCounts(t *testing.T) {
	const k, dim, shards = 5, 3, 4
	stream := gaussianRecords(13, 900, dim)

	c, err := NewCondenser(k, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(stream); err != nil {
		t.Fatal(err)
	}
	var records, groups, splits int
	for i := 0; i < shards; i++ {
		r, g, sp := s.ShardCounts(i)
		cond := s.Shard(i)
		if r != cond.TotalCount() || g != cond.NumGroups() {
			t.Errorf("shard %d counts = (%d,%d), snapshot says (%d,%d)",
				i, r, g, cond.TotalCount(), cond.NumGroups())
		}
		records += r
		groups += g
		splits += sp
	}
	if records != s.TotalCount() || groups != s.NumGroups() || splits != s.Splits() {
		t.Errorf("summed shard counts = (%d,%d,%d), engine says (%d,%d,%d)",
			records, groups, splits, s.TotalCount(), s.NumGroups(), s.Splits())
	}

	d, err := c.Sharded(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(d, stream[:100]); err != nil {
		t.Fatal(err)
	}
	r, g, sp := d.ShardCounts(0)
	if r != d.TotalCount() || g != d.NumGroups() || sp != d.Splits() {
		t.Errorf("dynamic ShardCounts = (%d,%d,%d), want (%d,%d,%d)",
			r, g, sp, d.TotalCount(), d.NumGroups(), d.Splits())
	}
	for name, f := range map[string]func(){
		"dynamic": func() { d.ShardCounts(1) },
		"sharded": func() { s.ShardCounts(shards) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range ShardCounts did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestDynamicConcurrentSingleShard drives one 1-shard engine from several
// goroutines at once, with no lock of the caller's around it: batch and
// per-record writers race readers of every kind (run under -race in CI).
// Every record must be condensed exactly once and, once the writers are
// done, every group must hold between k and 2k−1 records.
func TestDynamicConcurrentSingleShard(t *testing.T) {
	const k, dim = 5, 3
	c, err := NewCondenser(k, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	initial, err := c.Static(gaussianRecords(61, 200, dim))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.DynamicFrom(initial)
	if err != nil {
		t.Fatal(err)
	}

	const batchWriters, batches, batchSize, perRecord = 2, 10, 40, 150
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < batchWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < batches; i++ {
				if err := d.AddBatch(gaussianRecords(uint64(100+w*batches+i), batchSize, dim)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		if err := addEach(d, gaussianRecords(63, perRecord, dim)); err != nil {
			t.Error(err)
		}
	}()
	probe := gaussianRecords(65, 1, dim)[0]
	for _, read := range []func(){
		func() { _ = d.Condensation().TotalCount() },
		func() {
			// Writers move the engine, never a cut: every group the
			// release summarizes comes back under its own id.
			rel := releaseOf(d)
			for _, info := range rel.GroupInfos(nil) {
				if det, ok := rel.GroupByID(info.ID); !ok || det.GroupInfo != info {
					t.Errorf("GroupByID(%d) = %+v, %v; want %+v", info.ID, det.GroupInfo, ok, info)
				}
			}
		},
		func() {
			if _, err := releaseOf(d).Explain(probe, 3); err != nil {
				t.Error(err)
			}
		},
		func() { _ = NewRelease(d.Generation(), d.Condensation(), d.NumShards()).Sizes() },
		func() {
			g1 := d.Generation()
			if g2 := d.Generation(); g2 < g1 {
				t.Errorf("generation went backwards: %d then %d", g1, g2)
			}
		},
	} {
		readers.Add(1)
		go func(read func()) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					read()
				}
			}
		}(read)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	want := initial.TotalCount() + batchWriters*batches*batchSize + perRecord
	if got := d.TotalCount(); got != want {
		t.Fatalf("TotalCount = %d, want %d", got, want)
	}
	for i, g := range d.Shard(0).Groups() {
		if n := g.N(); n < k || n > 2*k-1 {
			t.Fatalf("group %d holds %d records, outside [%d,%d]", i, n, k, 2*k-1)
		}
	}
	if got := d.Condensation().TotalCount(); got != want {
		t.Fatalf("snapshot condenses %d records, want %d", got, want)
	}
}

// TestShardedFromClonesOnce bounds the seeding constructor's allocations
// to one copy of the initial groups at every shard count: the clones are
// dealt straight into the shards, never copied a second time. At dim 16
// a group clone is its header and a 152-value moment block (Fs and the
// upper triangle of Sc), about 1.3 KB. Everything else the constructor
// allocates per group is smaller: the centroid's two router rows (the
// id-order arena and the leaf arena, 128 bytes each), its tree slots and
// its identity record. Together they come to 1.30 copies, so a second
// clone would push the total past 2.3 copies; the bound sits between the
// two at 1.5.
func TestShardedFromClonesOnce(t *testing.T) {
	const k, dim = 4, 16
	initial, err := condense(gaussianRecords(71, 2400, dim), k, rng.New(73), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// allocBytes is the fewest bytes f allocated over a few runs, which
	// discounts allocations by anything else in the process.
	allocBytes := func(f func()) uint64 {
		var least uint64
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; run == 0 || n < least {
				least = n
			}
		}
		return least
	}
	clone := allocBytes(func() { _ = initial.Groups() })
	c, err := NewCondenser(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		got := allocBytes(func() {
			if _, err := c.ShardedFrom(initial, shards); err != nil {
				t.Fatal(err)
			}
		})
		if got > clone*3/2 {
			t.Errorf("%d shards: constructor allocated %d bytes, more than 1.5× one copy of the initial groups (%d bytes)", shards, got, clone)
		}
	}
}
