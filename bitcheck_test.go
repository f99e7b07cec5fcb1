package condensation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/rng"
)

// TestBitcheckFingerprint prints a fingerprint of the full default
// pipeline: static condensation, two identical passes of dynamic ingest
// through Add and AddBatch, and seeded synthesis.
// Run at two commits, the logged hashes must match byte for byte.
func TestBitcheckFingerprint(t *testing.T) {
	const dim, k, G = 8, 25, 300
	full := benchStreamCorr(14, G*k+10000, dim)
	base, err := condense(full[:G*k], k, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashCond := func(c *core.Condensation) {
		for _, g := range c.Groups() {
			b, err := g.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		fmt.Fprintf(h, "|")
	}
	hashCond(base)

	pool := full[G*k:]
	c, err := core.NewCondenser(k, core.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	// Two engines from the same base, both hashed: the fingerprint also
	// pins that a second engine repeats the first.
	for pass := 0; pass < 2; pass++ {
		dyn, err := c.DynamicFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range pool[:2000] {
			if err := dyn.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		for lo := 2000; lo+1024 <= len(pool); lo += 1024 {
			if err := dyn.AddBatch(pool[lo : lo+1024]); err != nil {
				t.Fatal(err)
			}
		}
		hashCond(dyn.Condensation())
	}

	groups, err := base.SynthesizeGrouped(rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	for _, pts := range groups {
		for _, x := range pts {
			for _, v := range x {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	t.Logf("pipeline fingerprint: %x", h.Sum(nil))
}

// TestAnonymizeDynamicFingerprint pins dynamic-mode Anonymize — the static
// pass over each class's initial fraction and the stream maintaining it —
// by the SHA-256 of every class's condensation checkpoint bytes, over a
// classification and a regression data set.
func TestAnonymizeDynamicFingerprint(t *testing.T) {
	const want = "bf353d74f65ab467df6cb4f252c59fac90696da738a2b08269c376780577538c"
	c, err := core.NewCondenser(10, core.WithSeed(22), core.WithMode(core.ModeDynamic))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range []string{"pima", "abalone"} {
		ds, err := datagen.ByName(name, 21)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := c.Anonymize(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range rep.Classes {
			if _, err := cr.Cond.WriteTo(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("dynamic Anonymize fingerprint %s, want %s", got, want)
	}
}
