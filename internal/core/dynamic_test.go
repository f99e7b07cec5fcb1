package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

// addEach feeds records through Add one at a time — the sequential
// reference every batch path is measured against.
func addEach(eng Engine, records []mat.Vector) error {
	for i, x := range records {
		if err := eng.Add(x); err != nil {
			return fmt.Errorf("stream record %d: %w", i, err)
		}
	}
	return nil
}

// emptyDynamic builds a one-shard engine with no initial database over
// records of dimension dim at level k and default options, drawing from r.
func emptyDynamic(dim, k int, r *rng.Source) (*Dynamic, error) {
	c, err := NewCondenser(k, WithRandomSource(r))
	if err != nil {
		return nil, err
	}
	return c.Sharded(dim, 1)
}

// dynamicFrom builds a one-shard engine seeded from initial, at its k and
// options, drawing from r.
func dynamicFrom(initial *Condensation, r *rng.Source) (*Dynamic, error) {
	c, err := NewCondenser(initial.K(), WithRandomSource(r), WithOptions(initial.Options()))
	if err != nil {
		return nil, err
	}
	return c.DynamicFrom(initial)
}

func TestDynamicSteadyStateGroupSizes(t *testing.T) {
	base := clusteredRecords(31, 20, 20)
	stream := clusteredRecords(32, 100, 100)
	k := 5

	cond, err := condense(base, k, rng.New(33), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamicFrom(cond, rng.New(34))
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn, stream); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	if got, want := snap.TotalCount(), len(base)+len(stream); got != want {
		t.Errorf("TotalCount = %d, want %d", got, want)
	}
	for i, g := range snap.Groups() {
		if g.N() >= 2*k {
			t.Errorf("group %d has %d ≥ 2k records after maintenance", i, g.N())
		}
	}
}

func TestDynamicSplitsHappen(t *testing.T) {
	base := clusteredRecords(35, 10, 0)
	k := 5
	cond, err := condense(base, k, rng.New(36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := cond.NumGroups()
	dyn, err := dynamicFrom(cond, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn, clusteredRecords(38, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if dyn.NumGroups() <= before {
		t.Errorf("NumGroups = %d after 100 additions, started at %d; expected splits", dyn.NumGroups(), before)
	}
}

func TestDynamicRoutesToNearestCluster(t *testing.T) {
	// Seed with both clusters, stream points near cluster B only, and
	// check the total mass near B grows accordingly.
	base := clusteredRecords(39, 20, 20)
	k := 4
	cond, err := condense(base, k, rng.New(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := dynamicFrom(cond, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	streamB := clusteredRecords(42, 0, 60)
	if err := addEach(dyn, streamB); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	cents, err := snap.Centroids()
	if err != nil {
		t.Fatal(err)
	}
	var massNearB int
	for i, c := range cents {
		if c.Dist(mat.Vector{20, 20}) < 5 {
			massNearB += snap.Groups()[i].N()
		}
	}
	if massNearB < 70 { // 20 original + 60 streamed, allow boundary slack
		t.Errorf("mass near cluster B = %d, want ≈ 80", massNearB)
	}
}

func TestDynamicEmptyStart(t *testing.T) {
	dyn, err := emptyDynamic(2, 3, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn, clusteredRecords(44, 30, 0)); err != nil {
		t.Fatal(err)
	}
	if dyn.NumGroups() == 0 {
		t.Fatal("no groups formed")
	}
	if got := dyn.Condensation().TotalCount(); got != 30 {
		t.Errorf("TotalCount = %d, want 30", got)
	}
}

func TestDynamicAddErrors(t *testing.T) {
	dyn, err := emptyDynamic(2, 2, rng.New(45))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Add(mat.Vector{1}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if err := dyn.Add(mat.Vector{1, math.Inf(1)}); err == nil {
		t.Error("non-finite record accepted")
	}
}

// TestDynamicConstructorErrors: the one-shard builders refuse what no
// engine can maintain — a dimension below 1, a nil initial condensation,
// an empty initial database — and the Condenser refuses k < 1 and unknown
// options before any engine exists.
func TestDynamicConstructorErrors(t *testing.T) {
	c, err := NewCondenser(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sharded(0, 1); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := c.DynamicFrom(nil); err == nil {
		t.Error("nil condensation accepted")
	}
	if _, err := c.Bootstrap(nil); err == nil {
		t.Error("empty initial database accepted")
	}
	if _, err := NewCondenser(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCondenser(2, WithSplitAxis(SplitAxis(9))); err == nil {
		t.Error("bad options accepted")
	}
}

// TestDynamicRefusesGroupOf2k: a group splits when an absorb brings it to
// exactly 2k records, so an initial group of 2k or more would never split
// and would grow without bound. Merging a k=3 and a k=5 condensation
// keeps k=3 and a 6-record group; every builder that seeds an engine from
// a condensation — one-shard, sharded, and resumed from its checkpoint —
// must refuse it. (Bootstrap condenses its own records, and a static
// pass folds at most k−1 leftovers into a group, so it never forms one.)
func TestDynamicRefusesGroupOf2k(t *testing.T) {
	const dim = 2
	small, err := condense(gaussianRecords(81, 9, dim), 3, rng.New(82), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Six records at k = 5: one group of five plus one folded leftover.
	big, err := condense(gaussianRecords(83, 6, dim), 5, rng.New(84), Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(small, big)
	if err != nil {
		t.Fatal(err)
	}
	if merged.K() != 3 || merged.groups[len(merged.groups)-1].N() != 6 {
		t.Fatalf("merged k = %d, last group %d records; want k = 3 and a group of 6",
			merged.K(), merged.groups[len(merged.groups)-1].N())
	}
	var buf bytes.Buffer
	if _, err := merged.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ReadCondensation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCondenser(3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (*Dynamic, error){
		"DynamicFrom": func() (*Dynamic, error) { return c.DynamicFrom(merged) },
		"ShardedFrom": func() (*Dynamic, error) { return c.ShardedFrom(merged, 4) },
		"resume":      func() (*Dynamic, error) { return c.DynamicFrom(resumed) },
	} {
		if _, err := build(); err == nil || !strings.Contains(err.Error(), "never split") {
			t.Errorf("%s accepted an initial group of 2k records (err = %v)", name, err)
		}
	}
	// Groups within [k, 2k−1] are still accepted.
	if _, err := c.DynamicFrom(small); err != nil {
		t.Fatalf("a condensation within [k, 2k−1] was refused: %v", err)
	}
}

func TestDynamicAccessors(t *testing.T) {
	dyn, err := emptyDynamic(3, 4, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.K() != 4 || dyn.Dim() != 3 || dyn.NumGroups() != 0 {
		t.Errorf("K=%d Dim=%d NumGroups=%d", dyn.K(), dyn.Dim(), dyn.NumGroups())
	}
}

func TestDynamicCondensationSnapshotIsolated(t *testing.T) {
	dyn, err := emptyDynamic(2, 2, rng.New(48))
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn, clusteredRecords(49, 10, 0)); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	before := snap.TotalCount()
	if err := addEach(dyn, clusteredRecords(50, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if snap.TotalCount() != before {
		t.Error("snapshot shares state with live condenser")
	}
}

func TestDynamicK1(t *testing.T) {
	// The paper notes dynamic condensation with group size 1 does not
	// reproduce the original data (splits at size 2 use the uniform
	// approximation); it must still preserve counts and stay at size 1.
	dyn, err := emptyDynamic(2, 1, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn, clusteredRecords(52, 20, 0)); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	if snap.TotalCount() != 20 {
		t.Errorf("TotalCount = %d, want 20", snap.TotalCount())
	}
	for _, g := range snap.Groups() {
		if g.N() != 1 {
			t.Errorf("k=1 steady-state group of size %d", g.N())
		}
	}
}
