package stats

import (
	"bytes"
	"testing"

	"condensation/internal/mat"
)

// FuzzGroupUnmarshal throws arbitrary bytes at the binary decoder: it must
// either reject the input or produce a structurally consistent group —
// never panic.
func FuzzGroupUnmarshal(f *testing.F) {
	good, err := FromRecords([]mat.Vector{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := good.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, 20))
	f.Add(seed[:len(seed)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		var g Group
		if err := g.UnmarshalBinary(data); err != nil {
			return
		}
		if g.Dim() <= 0 {
			t.Fatalf("accepted group with dimension %d", g.Dim())
		}
		// FromMoments' invariants hold for every accepted group.
		if g.N() < 1 || !mat.Vector(g.block).IsFinite() {
			t.Fatalf("accepted group with n=%d or non-finite moments: %v", g.N(), &g)
		}
		// Every accepted group must round-trip identically: the decoder
		// keeps the encoded block as it is, so re-marshalling gives back
		// the input bytes.
		out, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-marshal changed the bytes:\n in %x\nout %x", data, out)
		}
		var h Group
		if err := h.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if h.Dim() != g.Dim() || h.N() != g.N() {
			t.Fatalf("round trip changed shape: %v vs %v", h, g)
		}
	})
}
