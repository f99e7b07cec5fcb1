package core

import (
	"bytes"
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

// TestSynthesizeGroupedExcept checks that skipping groups changes nothing
// about the groups that are synthesized: each equals its SynthesizeGrouped
// output bit for bit, because every group's rng stream is still split in
// order, and each skipped group's slot is nil.
func TestSynthesizeGroupedExcept(t *testing.T) {
	cond, err := condense(clusteredRecords(61, 90, 90), 6, rng.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cond.SynthesizeGrouped(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	for trial := 0; trial < 8; trial++ {
		skip := make([]bool, cond.NumGroups())
		for gi := range skip {
			skip[gi] = r.IntN(2) == 0
		}
		if trial == 0 {
			skip = nil
		}
		got, err := cond.SynthesizeGroupedExcept(rng.New(11), skip)
		if err != nil {
			t.Fatal(err)
		}
		for gi := range want {
			if skip != nil && skip[gi] {
				if got[gi] != nil {
					t.Fatalf("trial %d: skipped group %d was synthesized", trial, gi)
				}
				continue
			}
			if !sameBits(got[gi], want[gi]) {
				t.Fatalf("trial %d: group %d differs from SynthesizeGrouped", trial, gi)
			}
		}
	}
	if _, err := cond.SynthesizeGroupedExcept(rng.New(1), make([]bool, cond.NumGroups()+1)); err == nil {
		t.Fatal("a skip mask of the wrong length was accepted")
	}
}

// sameBits reports whether two point sets are bit-identical.
func sameBits(a, b []mat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestSnapshotClonesOnlyDirtySlots drives a 3-shard engine to a split in
// shard 0. The next snapshot must re-clone exactly the slots the writes
// changed — both halves of the split — and share every other clone. In
// the merged snapshot the split shifts shard 1's and 2's groups one index
// up, so SharesGroup, which compares by index, reports none of them as
// shared although their clones are the same objects.
func TestSnapshotClonesOnlyDirtySlots(t *testing.T) {
	c, err := NewCondenser(4, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Sharded(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddBatch(clusteredRecords(71, 60, 60)); err != nil {
		t.Fatal(err)
	}
	before := d.Condensation()
	before0, before1 := d.Shard(0), d.Shard(1)
	snap := condBytes(before)
	splits := d.Splits()
	r := rng.New(72)
	for d.Splits() == splits {
		x := mat.Vector{r.Norm(), r.Norm()}
		if d.shardOf(x) != 0 {
			continue
		}
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	after0, after1 := d.Shard(0), d.Shard(1)
	if after0.NumGroups() != before0.NumGroups()+1 {
		t.Fatalf("shard 0 has %d groups after one split, had %d", after0.NumGroups(), before0.NumGroups())
	}
	for i := 0; i < after0.NumGroups(); i++ {
		changed := i >= before0.NumGroups() || after0.groups[i].N() != before0.groups[i].N() ||
			!bytes.Equal(groupBytes(after0, i), groupBytes(before0, i))
		if shared := after0.SharesGroup(before0, i); shared == changed {
			t.Errorf("shard 0 slot %d: changed %v, shared %v", i, changed, shared)
		}
	}
	for i := 0; i < after1.NumGroups(); i++ {
		if !after1.SharesGroup(before1, i) {
			t.Errorf("shard 1 slot %d was re-cloned although shard 1 took no writes", i)
		}
	}

	after := d.Condensation()
	g0 := after0.NumGroups()
	for gi := g0; gi < after.NumGroups(); gi++ {
		if after.SharesGroup(before, gi) {
			t.Errorf("merged group %d shared across the shift", gi)
		}
		if after.groups[gi] != before.groups[gi-1] {
			t.Errorf("merged group %d is not shard 1/2's unchanged clone from index %d", gi, gi-1)
		}
	}
	if !bytes.Equal(snap, condBytes(before)) {
		t.Error("an earlier snapshot changed after later writes")
	}
	if after.TotalCount() <= before.TotalCount() {
		t.Errorf("TotalCount %d after writes, was %d", after.TotalCount(), before.TotalCount())
	}
}

// groupBytes serializes group i of c alone.
func groupBytes(c *Condensation, i int) []byte {
	return condBytes(newCondensation(c.dim, c.k, c.opts, c.groups[i:i+1]))
}

// TestRecordMagnitudeBound admits values at ±MaxRecordMagnitude, refuses
// the next float beyond it on both ingest paths, and keeps a state built
// from values at the bound synthesizable to finite records.
func TestRecordMagnitudeBound(t *testing.T) {
	const b = MaxRecordMagnitude
	above := math.Nextafter(b, math.Inf(1))
	c, err := NewCondenser(2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		d, err := c.Sharded(2, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Add(mat.Vector{above, 1}); err == nil {
			t.Errorf("shards=%d: Add accepted %g", shards, above)
		}
		if err := d.AddBatch([]mat.Vector{{1, 1}, {1, -above}}); err == nil {
			t.Errorf("shards=%d: AddBatch accepted %g", shards, -above)
		}
		if d.TotalCount() != 0 {
			t.Fatalf("shards=%d: a refused batch admitted records", shards)
		}
		if err := d.AddBatch([]mat.Vector{{b, 1}, {b, 2}, {1, b}, {2, b}, {-b, -b}, {b, -b}, {-b, b}, {b, b}}); err != nil {
			t.Fatalf("shards=%d: values at the bound refused: %v", shards, err)
		}
		if err := d.Add(mat.Vector{-b, 0}); err != nil {
			t.Fatal(err)
		}
		out, err := d.Condensation().Synthesize(rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range out {
			if !x.IsFinite() {
				t.Fatalf("shards=%d: synthesized %v from values at the bound", shards, x)
			}
		}
	}
}
