package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// TestReleaseShardSizes: in steady state nothing is withheld, so a
// Release holds the cut itself, and its per-shard size ranges cover
// exactly each shard's live groups and records.
func TestReleaseShardSizes(t *testing.T) {
	c, err := NewCondenser(4, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(clusteredRecords(47, 50, 50)); err != nil {
		t.Fatal(err)
	}
	cut := s.Condensation()
	rel := NewRelease(s.Generation(), cut, s.NumShards())
	if rel.Condensation() != cut {
		t.Fatal("a release withholding nothing copied the cut")
	}
	if g, n := rel.Withheld(); g != 0 || n != 0 {
		t.Fatalf("steady state withheld %d groups / %d records", g, n)
	}
	var total, groups int
	for i := 0; i < s.NumShards(); i++ {
		sizes := rel.ShardSizes(i)
		r, g, _ := s.ShardCounts(i)
		if len(sizes) != g {
			t.Errorf("shard %d: %d sizes, want %d groups", i, len(sizes), g)
		}
		var sum int
		for _, n := range sizes {
			sum += n
		}
		if sum != r {
			t.Errorf("shard %d: sizes sum to %d, want %d records", i, sum, r)
		}
		sh := rel.Shard(i)
		if sh.NumGroups() != len(sizes) || sh.TotalCount() != sum {
			t.Errorf("shard %d: Shard holds %d groups / %d records, sizes say %d / %d",
				i, sh.NumGroups(), sh.TotalCount(), len(sizes), sum)
		}
		for _, id := range sh.GroupIDs() {
			if int(id>>groupIDShardShift) != i {
				t.Errorf("shard %d range holds group %d of shard %d", i, id, id>>groupIDShardShift)
			}
		}
		total += sum
		groups += len(sizes)
	}
	if total != s.TotalCount() || groups != s.NumGroups() || groups != len(rel.Sizes()) {
		t.Errorf("sizes cover %d records/%d groups, engine has %d/%d, release %d groups",
			total, groups, s.TotalCount(), s.NumGroups(), len(rel.Sizes()))
	}
}

// TestReleaseWithholdsBelowK: a pure-stream engine's first group is one
// raw record. The Release withholds it until it holds k records, and then
// releases it.
func TestReleaseWithholdsBelowK(t *testing.T) {
	const k, dim = 10, 2
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := NewCondenser(k, WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			d, err := c.Sharded(dim, shards)
			if err != nil {
				t.Fatal(err)
			}
			x := mat.Vector{0.3141592653589793, 0.2718281828459045}
			if err := d.Add(x); err != nil {
				t.Fatal(err)
			}
			rel := NewRelease(d.Generation(), d.Condensation(), shards)
			if n := rel.Condensation().NumGroups(); n != 0 {
				t.Fatalf("one record released %d groups", n)
			}
			if g, n := rel.Withheld(); g != 1 || n != 1 || len(rel.Sizes()) != 0 {
				t.Fatalf("withheld %d groups / %d records, released %d groups; want 1/1/0", g, n, len(rel.Sizes()))
			}
			for i := 0; i < shards; i++ {
				if len(rel.ShardSizes(i)) != 0 || rel.Shard(i).NumGroups() != 0 {
					t.Fatalf("shard %d released a group", i)
				}
			}

			// Records land on the first record's shard by hashing whole
			// records, so feed a stream until some group reaches k.
			stream := gaussianRecords(5, 40*shards*k, dim)
			for _, y := range stream {
				if err := d.Add(y); err != nil {
					t.Fatal(err)
				}
				rel = NewRelease(d.Generation(), d.Condensation(), shards)
				if rel.Condensation().NumGroups() > 0 {
					break
				}
			}
			if rel.Condensation().NumGroups() == 0 {
				t.Fatal("no group ever reached k")
			}
			for i, n := range rel.Sizes() {
				if n < k {
					t.Fatalf("released group %d holds %d < k records", i, n)
				}
			}
			wg, wn := rel.Withheld()
			released := rel.Condensation().TotalCount()
			if released+wn != d.TotalCount() || len(rel.Sizes())+wg != d.NumGroups() {
				t.Fatalf("released %d+withheld %d records of %d; %d+%d groups of %d",
					released, wn, d.TotalCount(), len(rel.Sizes()), wg, d.NumGroups())
			}
			if got := len(rel.Condensation().GroupIDs()); got != len(rel.Sizes()) {
				t.Fatalf("released condensation carries %d ids for %d groups", got, len(rel.Sizes()))
			}
		})
	}
}

// TestReleaseGroupDiagnostics: a Release's group summaries follow its
// groups in release order, each id resolves to the same summary with the
// group's exact centroid, and the cut stays frozen while the engine moves
// on. A cut without ids has no summaries.
func TestReleaseGroupDiagnostics(t *testing.T) {
	const k, dim, shards = 5, 3, 3
	c, err := NewCondenser(k, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatch(gaussianRecords(29, 600, dim)); err != nil {
		t.Fatal(err)
	}
	rel := NewRelease(s.Generation(), s.Condensation(), shards)
	infos := rel.GroupInfos(nil)
	ids := rel.Condensation().GroupIDs()
	cents, err := rel.Condensation().Centroids()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(rel.Sizes()) || len(ids) != len(infos) {
		t.Fatalf("%d summaries, %d ids for %d released groups", len(infos), len(ids), len(rel.Sizes()))
	}
	for i, gi := range infos {
		if gi.ID != ids[i] || gi.Size != rel.Sizes()[i] || gi.Shard != int(gi.ID>>groupIDShardShift) {
			t.Fatalf("summary %d = %+v, want id %d of size %d", i, gi, ids[i], rel.Sizes()[i])
		}
		det, ok := rel.GroupByID(gi.ID)
		if !ok || det.GroupInfo != gi {
			t.Fatalf("GroupByID(%d) = %+v, %v; want %+v", gi.ID, det.GroupInfo, ok, gi)
		}
		for j := range cents[i] {
			if math.Float64bits(det.Centroid[j]) != math.Float64bits(cents[i][j]) {
				t.Fatalf("group %d centroid %v, want %v", gi.ID, det.Centroid, cents[i])
			}
		}
	}
	if err := s.AddBatch(gaussianRecords(30, 300, dim)); err != nil {
		t.Fatal(err)
	}
	if got := rel.GroupInfos(make([]GroupInfo, 3)); !reflect.DeepEqual(got, infos) {
		t.Fatal("a release's summaries changed after the engine moved")
	}

	static, err := condense(gaussianRecords(31, 60, dim), k, rng.New(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bare := NewRelease(0, static, 1)
	if infos := bare.GroupInfos(nil); infos == nil || len(infos) != 0 {
		t.Fatalf("a cut without ids summarized %v", infos)
	}
	if _, ok := bare.GroupByID(1); ok {
		t.Fatal("a cut without ids resolved group 1")
	}
}

// TestReleaseChanges diffs hand-built cuts of one shard at k = 2. Each
// slot is an id and a size; a size below k is withheld. It covers a split
// (the parent's slot keeps its first half and the second is appended) and
// a withheld group released for the first time, which shifts every later
// position.
func TestReleaseChanges(t *testing.T) {
	type slot struct {
		id     uint64
		size   int
		parent uint64
	}
	cut := func(slots ...slot) *Release {
		groups := make([]*stats.Group, len(slots))
		meta := make([]*groupMeta, len(slots))
		for i, sl := range slots {
			groups[i] = stats.NewGroup(1)
			for j := 0; j < sl.size; j++ {
				if err := groups[i].Add(mat.Vector{float64(j)}); err != nil {
					t.Fatal(err)
				}
			}
			meta[i] = &groupMeta{id: sl.id, parent: sl.parent}
		}
		c := newCondensation(1, 2, Options{}, groups)
		c.meta = meta
		return NewRelease(0, c, 1)
	}
	diff := func(prev, r *Release) string {
		var out []string
		r.Changes(prev, func(gi GroupInfo, released bool) {
			if released {
				out = append(out, fmt.Sprintf("+%d<%d", gi.ID, gi.Parent))
			} else {
				out = append(out, fmt.Sprintf("-%d", gi.ID))
			}
		})
		return fmt.Sprint(out)
	}
	base := cut(slot{1, 3, 0}, slot{6, 1, 0}, slot{2, 2, 0}, slot{3, 3, 0})
	for _, tc := range []struct {
		name      string
		prev, now *Release
		want      string
	}{
		{"first release", nil, base, "[+1<0 +2<0 +3<0]"},
		{"unchanged", base, base, "[]"},
		{"split in place", base, cut(slot{7, 2, 1}, slot{6, 1, 0}, slot{2, 3, 0}, slot{3, 3, 0}, slot{8, 2, 1}), "[-1 +7<1 +8<1]"},
		{"withheld released", base, cut(slot{1, 3, 0}, slot{6, 2, 0}, slot{2, 2, 0}, slot{3, 3, 0}), "[+6<0]"},
		{"withheld released beside a split", base, cut(slot{1, 3, 0}, slot{6, 2, 0}, slot{2, 3, 0}, slot{9, 2, 3}, slot{10, 2, 3}), "[-3 +6<0 +9<3 +10<3]"},
	} {
		if got := diff(tc.prev, tc.now); got != tc.want {
			t.Errorf("%s: changes %s, want %s", tc.name, got, tc.want)
		}
	}
}
