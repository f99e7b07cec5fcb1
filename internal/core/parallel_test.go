package core

import (
	"reflect"
	"testing"

	"condensation/internal/rng"
)

// TestSynthesizeParallelEquivalence proves the synthesis determinism
// guarantee: because every group draws from its own pre-derived stream,
// the synthesized records are bit-identical for every worker count.
func TestSynthesizeParallelEquivalence(t *testing.T) {
	recs := correlatedRecords(30, 120)
	cond, err := condense(recs, 8, rng.New(31), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cond.SetParallelism(1)
	seq, err := cond.SynthesizeGrouped(rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 8} {
		cond.SetParallelism(p)
		got, err := cond.SynthesizeGrouped(rng.New(32))
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallelism %d: synthesized groups differ from sequential", p)
		}
	}

	// The flat view concatenates the same per-group output.
	cond.SetParallelism(8)
	flat, err := cond.Synthesize(rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for gi, g := range seq {
		for pi, want := range g {
			if !flat[i].Equal(want, 0) {
				t.Fatalf("flat record %d differs from group %d point %d", i, gi, pi)
			}
			i++
		}
	}
	if i != len(flat) {
		t.Fatalf("flat synthesis has %d records, grouped has %d", len(flat), i)
	}
}

// TestSynthesizeParallelGaussian repeats the equivalence check for the
// Gaussian ablation mode, whose draw pattern differs per point.
func TestSynthesizeParallelGaussian(t *testing.T) {
	recs := correlatedRecords(33, 90)
	cond, err := condense(recs, 6, rng.New(34), Options{Synthesis: SynthesisGaussian})
	if err != nil {
		t.Fatal(err)
	}
	cond.SetParallelism(1)
	seq, err := cond.Synthesize(rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	cond.SetParallelism(8)
	par, err := cond.Synthesize(rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("Gaussian synthesis differs between 1 and 8 workers")
	}
}

// TestAnonymizeParallelEquivalence checks the knob end to end: a full
// Anonymize run (condense + synthesize per class) produces the identical
// data set at every parallelism, and the facade's WithParallelism option
// reaches synthesis too.
func TestAnonymizeParallelEquivalence(t *testing.T) {
	ds := toyClassification(36, 50)
	run := func(p int) ([][]float64, error) {
		anon, _, err := anonymize(ds, 5, rng.New(37), WithParallelism(p))
		if err != nil {
			return nil, err
		}
		out := make([][]float64, len(anon.X))
		for i, x := range anon.X {
			out[i] = x
		}
		return out, nil
	}
	seq, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("Anonymize output differs between 1 and 8 workers")
	}

	for _, p := range []int{1, 8} {
		c, err := NewCondenser(5, WithSeed(37), WithParallelism(p), WithRandomSource(rng.New(37)))
		if err != nil {
			t.Fatal(err)
		}
		anon, _, err := c.Anonymize(ds)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]float64, len(anon.X))
		for i, x := range anon.X {
			got[i] = x
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("Condenser.Anonymize with parallelism %d differs from sequential Anonymize", p)
		}
	}
}

// TestMergePropagatesParallelism pins that merged condensations keep the
// first input's synthesis parallelism.
func TestMergePropagatesParallelism(t *testing.T) {
	recs := correlatedRecords(38, 40)
	a, err := condense(recs[:20], 4, rng.New(39), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := condense(recs[20:], 4, rng.New(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.SetParallelism(8)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.par != 8 {
		t.Errorf("merged parallelism = %d, want 8", m.par)
	}
}
