package core

import (
	"bytes"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

// FuzzReadCondensation feeds arbitrary bytes to the condensation decoder;
// it must reject or produce a consistent condensation, never panic or
// over-allocate catastrophically. An accepted checkpoint must also survive
// what a resuming server does with it: DynamicFrom, AddBatch, then
// synthesis (bounded here to 1<<16 records and dimension 256, so one
// input stays cheap). DynamicFrom refuses a checkpoint exactly when one
// of its groups holds 2k or more records, which would never split.
func FuzzReadCondensation(f *testing.F) {
	cond, err := condense(clusteredRecords(200, 8, 8), 4, rng.New(201), Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:10])
	f.Add(bytes.Repeat([]byte{0xff}, 80))
	// Merged with a k=5 condensation of nine records, one group of nine,
	// the k=4 seed holds a group of 2k or more: the one refusal resume
	// may make.
	big, err := condense(clusteredRecords(202, 9, 0), 5, rng.New(203), Options{})
	if err != nil {
		f.Fatal(err)
	}
	merged, err := Merge(cond, big)
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if _, err := merged.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCondensation(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Dim() <= 0 || got.K() < 1 {
			t.Fatalf("accepted condensation dim=%d k=%d", got.Dim(), got.K())
		}
		// Accepted input must round-trip to an equal re-encoding of itself.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadCondensation(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.NumGroups() != got.NumGroups() || again.TotalCount() != got.TotalCount() {
			t.Fatal("round trip changed group structure")
		}

		if got.Dim() > 256 {
			return
		}
		c, err := NewCondenser(got.K(), WithOptions(got.Options()), WithParallelism(1))
		if err != nil {
			t.Fatalf("checkpoint's own k and options refused: %v", err)
		}
		oversized := false
		for _, g := range got.groups {
			oversized = oversized || g.N() >= 2*got.K()
		}
		d, err := c.DynamicFrom(got)
		if oversized != (err != nil) {
			t.Fatalf("resume of a checkpoint with a group of 2k or more records: %v = %v", oversized, err)
		}
		if err != nil {
			return
		}
		r := rng.New(uint64(len(data)))
		batch := make([]mat.Vector, 8)
		for i := range batch {
			batch[i] = make(mat.Vector, got.Dim())
			for j := range batch[i] {
				batch[i][j] = r.Norm()
			}
		}
		if err := d.AddBatch(batch); err != nil {
			t.Fatalf("ingest after resume failed: %v", err)
		}
		if got.TotalCount() <= 1<<16 {
			// Finite moments may still overflow the eigensolve: an error
			// is allowed, a panic is not.
			_, _ = d.Condensation().SynthesizeGrouped(rng.New(1))
		}
	})
}
