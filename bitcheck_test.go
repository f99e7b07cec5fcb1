package condensation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"condensation/internal/core"
	"condensation/internal/rng"
)

// TestBitcheckFingerprint prints a fingerprint of the full default
// pipeline: static condensation, two passes of dynamic ingest through Add
// and AddBatch (at speculation parallelism 1 and 8), and seeded synthesis.
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
	for _, par := range []int{1, 8} {
		dyn, err := core.NewDynamic(base, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		dyn.SetParallelism(par)
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
