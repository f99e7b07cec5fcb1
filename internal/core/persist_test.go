package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"condensation/internal/rng"
)

func TestCondensationRoundTrip(t *testing.T) {
	recs := clusteredRecords(61, 20, 20)
	orig, err := condense(recs, 5, rng.New(62), Options{
		Synthesis: SynthesisGaussian,
		SplitAxis: SplitRandom,
		Leftover:  LeftoverOwnGroup,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCondensation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != orig.Dim() || got.K() != orig.K() || got.NumGroups() != orig.NumGroups() {
		t.Fatalf("round trip: dim=%d k=%d groups=%d, want dim=%d k=%d groups=%d",
			got.Dim(), got.K(), got.NumGroups(), orig.Dim(), orig.K(), orig.NumGroups())
	}
	if got.opts != orig.opts {
		t.Errorf("options %+v, want %+v", got.opts, orig.opts)
	}
	og, gg := orig.Groups(), got.Groups()
	for i := range og {
		if og[i].N() != gg[i].N() {
			t.Fatalf("group %d count %d, want %d", i, gg[i].N(), og[i].N())
		}
		if !og[i].FirstOrderSums().Equal(gg[i].FirstOrderSums(), 0) {
			t.Fatalf("group %d Fs not preserved", i)
		}
		if !og[i].SecondOrderSums().Equal(gg[i].SecondOrderSums(), 0) {
			t.Fatalf("group %d Sc not preserved", i)
		}
	}
	// Synthesis from the loaded condensation must match bit for bit.
	s1, err := orig.Synthesize(rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := got.Synthesize(rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if !s1[i].Equal(s2[i], 0) {
			t.Fatal("synthesis differs after round trip")
		}
	}
}

func TestReadCondensationRejectsGarbage(t *testing.T) {
	if _, err := ReadCondensation(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadCondensation(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("zero stream accepted")
	}
	// Corrupt a valid stream's version field.
	recs := clusteredRecords(64, 6, 0)
	cond, err := condense(recs, 2, rng.New(65), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 99 // version
	if _, err := ReadCondensation(bytes.NewReader(data)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated stream.
	buf.Reset()
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadCondensation(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestReadCondensationRejectsCorruptMoments patches one field of a valid
// checkpoint's group moments. Each patched file used to decode and resume;
// n = −5 then panicked in synthesis and a non-finite Fs made every
// synthesis fail. The decoder now enforces stats.FromMoments' invariants.
func TestReadCondensationRejectsCorruptMoments(t *testing.T) {
	cond, err := condense(clusteredRecords(68, 20, 0), 4, rng.New(69), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := ReadCondensation(bytes.NewReader(valid)); err != nil {
		t.Fatalf("unpatched checkpoint refused: %v", err)
	}
	// Layout: an 8-word header, then per group an 8-byte length and the
	// group encoding (4-byte magic, 8-byte dim, 8-byte n, Fs, Sc).
	const g0 = 8*8 + 8
	g1 := g0 + int(binary.LittleEndian.Uint64(valid[g0-8:])) + 8
	nAt := func(g int) int { return g + 12 }
	fs0 := g0 + 20
	for _, tc := range []struct {
		name string
		at   int
		v    uint64
	}{
		{"n=-5", nAt(g0), uint64(1<<64 - 5)},
		{"n=0", nAt(g0), 0},
		{"Fs[0]=NaN", fs0, math.Float64bits(math.NaN())},
		{"Fs[0]=+Inf", fs0, math.Float64bits(math.Inf(1))},
		{"Sc[0][0]=-Inf", fs0 + 8*cond.Dim(), math.Float64bits(math.Inf(-1))},
		{"total count overflows", nAt(g1), uint64(math.MaxInt - 1)},
	} {
		data := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(data[tc.at:], tc.v)
		if _, err := ReadCondensation(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", tc.name)
		}
	}
	// A file with no groups may still not claim a dimension whose group
	// encoding would exceed the per-group byte bound.
	for dim, ok := range map[uint64]bool{4094: true, 4095: false, 1 << 20: false} {
		data := bytes.Clone(valid[:8*8])
		binary.LittleEndian.PutUint64(data[2*8:], dim)
		binary.LittleEndian.PutUint64(data[7*8:], 0) // group count
		if _, err := ReadCondensation(bytes.NewReader(data)); (err == nil) != ok {
			t.Errorf("empty file with dim %d: err = %v, want accepted=%v", dim, err, ok)
		}
	}
}

func TestReadCondensationRejectsBadOptions(t *testing.T) {
	recs := clusteredRecords(66, 6, 0)
	cond, err := condense(recs, 2, rng.New(67), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[32] = 200 // synthesis enum (header words: magic, version, dim, k, synthesis, ...)
	if _, err := ReadCondensation(bytes.NewReader(data)); err == nil {
		t.Error("bad synthesis option accepted")
	}
}

func TestClassCondensationsRoundTrip(t *testing.T) {
	a, err := condense(clusteredRecords(70, 10, 0), 3, rng.New(71), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := condense(clusteredRecords(72, 0, 14), 4, rng.New(73), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]*Condensation{0: a, 1: b, -1: a}
	var buf bytes.Buffer
	if _, err := WriteClassCondensations(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadClassCondensations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d classes, want 3", len(out))
	}
	for label, cond := range in {
		got, ok := out[label]
		if !ok {
			t.Fatalf("class %d missing", label)
		}
		if got.TotalCount() != cond.TotalCount() || got.K() != cond.K() {
			t.Errorf("class %d: count=%d k=%d, want count=%d k=%d",
				label, got.TotalCount(), got.K(), cond.TotalCount(), cond.K())
		}
	}
}

func TestClassCondensationsErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteClassCondensations(&buf, nil); err == nil {
		t.Error("empty map accepted")
	}
	if _, err := WriteClassCondensations(&buf, map[int]*Condensation{0: nil}); err == nil {
		t.Error("nil condensation accepted")
	}
	if _, err := ReadClassCondensations(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadClassCondensations(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("zero stream accepted")
	}
	// Valid stream, truncated body.
	a, err := condense(clusteredRecords(74, 8, 0), 2, rng.New(75), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := WriteClassCondensations(&buf, map[int]*Condensation{0: a}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadClassCondensations(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}
