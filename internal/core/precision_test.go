package core

import (
	"bytes"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

func TestParseIndexPrecision(t *testing.T) {
	cases := []struct {
		in   string
		want IndexPrecision
		ok   bool
	}{
		{"float64", Float64, true},
		{"f64", Float64, true},
		{"float32", Float32, true},
		{"f32", Float32, true},
		{"", 0, false},
		{"float16", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIndexPrecision(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseIndexPrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseIndexPrecision(%q) accepted, want error", c.in)
		}
	}
	if Float64.String() != "float64" || Float32.String() != "float32" {
		t.Errorf("String() = %q, %q", Float64.String(), Float32.String())
	}
	if err := IndexPrecision(7).validate(); err == nil {
		t.Error("IndexPrecision(7) validated, want error")
	}
}

// tieStream returns a record stream salted with exact duplicates — each
// duplicated record is routed twice, the second time potentially facing
// equidistant centroids, so the lexicographic (distance, id) tie-break is
// actually exercised rather than just documented.
func tieStream(seed uint64, n, dim int) []mat.Vector {
	recs := gaussianRecords(seed, n, dim)
	for i := 3; i+1 < len(recs); i += 7 {
		recs[i+1] = recs[i].Clone()
	}
	return recs
}

// TestFloat32RoutingEquivalence is the Float32 index mode's correctness
// contract: pruning in float32 with the safety margin and re-verifying in
// float64 must leave every routing decision — and therefore the condensed
// groups, centroids, and synthesized output — bit-identical to the default
// float64 scan, through both the per-record Add path and AddBatch at
// several parallelism levels.
func TestFloat32RoutingEquivalence(t *testing.T) {
	const k, dim = 6, 4
	stream := tieStream(31, 1500, dim)

	build := func(p IndexPrecision) *Dynamic {
		t.Helper()
		d, err := NewDynamicEmpty(dim, k, Options{}, rng.New(32))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetIndexPrecision(p); err != nil {
			t.Fatal(err)
		}
		return d
	}

	ref := build(Float64)
	for _, x := range stream {
		if err := ref.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	want := dynamicFingerprint(t, ref)

	// Per-record Add path under the f32 router.
	d := build(Float32)
	if got := d.shards[0].router.label(); got != "centroid-scan-f32" {
		t.Fatalf("router label = %q, want centroid-scan-f32", got)
	}
	for _, x := range stream {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dynamicFingerprint(t, d), want) {
		t.Fatal("float32 Add path diverged from float64 routing")
	}

	// Speculative batch path at several worker counts and batch shapes.
	for _, par := range []int{1, 2, 8} {
		for _, batch := range []int{1, 7, 300, len(stream)} {
			d := build(Float32)
			d.SetParallelism(par)
			for lo := 0; lo < len(stream); lo += batch {
				hi := lo + batch
				if hi > len(stream) {
					hi = len(stream)
				}
				if err := d.AddBatch(stream[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(dynamicFingerprint(t, d), want) {
				t.Fatalf("par=%d batch=%d: float32 AddBatch diverged from float64 routing", par, batch)
			}
		}
	}
}

// TestFloat32PrecisionSwitch flips an engine from float64 to float32
// mid-stream and back; the condensed state must match a pure float64 run
// record for record, and switching must preserve the already-built groups.
func TestFloat32PrecisionSwitch(t *testing.T) {
	const k, dim = 5, 3
	stream := tieStream(41, 900, dim)

	ref, err := NewDynamicEmpty(dim, k, Options{}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range stream {
		if err := ref.Add(x); err != nil {
			t.Fatal(err)
		}
	}

	d, err := NewDynamicEmpty(dim, k, Options{}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range stream {
		switch i {
		case 300:
			if err := d.SetIndexPrecision(Float32); err != nil {
				t.Fatal(err)
			}
		case 600:
			if err := d.SetIndexPrecision(Float64); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dynamicFingerprint(t, d), dynamicFingerprint(t, ref)) {
		t.Fatal("mid-stream precision switches changed the condensed state")
	}
}

// TestShardedFloat32Equivalence checks the sharded engine under Float32:
// per-shard routing must still be exact, so the merged condensation equals
// the float64 run shard for shard.
func TestShardedFloat32Equivalence(t *testing.T) {
	const k, dim, shards = 5, 3, 4
	stream := tieStream(51, 1200, dim)

	build := func(p IndexPrecision) *Dynamic {
		t.Helper()
		c, err := NewCondenser(k, WithSeed(52))
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Sharded(dim, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetIndexPrecision(p); err != nil {
			t.Fatal(err)
		}
		return s
	}

	ref := build(Float64)
	if err := addEach(ref, stream); err != nil {
		t.Fatal(err)
	}
	got := build(Float32)
	if err := got.AddBatch(stream); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		want, err := shardFingerprint(ref.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		have, err := shardFingerprint(got.Shard(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Fatalf("shard %d diverged under Float32 indexing", i)
		}
	}
}

// shardFingerprint encodes one shard's groups byte for byte.
func shardFingerprint(c *Condensation) ([]byte, error) {
	var buf bytes.Buffer
	for _, g := range c.Groups() {
		enc, err := g.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf.Write(enc)
	}
	return buf.Bytes(), nil
}
