package core

import (
	"fmt"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// gaussianRecords returns n records of dimension d with i.i.d. standard
// normal attributes — pairwise distances are distinct almost surely, which
// is the regime where every neighbour-search backend must form identical
// groups.
func gaussianRecords(seed uint64, n, d int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		v := make(mat.Vector, d)
		for j := range v {
			v[j] = r.Norm()
		}
		out[i] = v
	}
	return out
}

// groupKey renders a group's exact aggregate statistics for comparison.
func groupKey(g *stats.Group) string {
	return fmt.Sprintf("n=%d fs=%v sc=%v", g.N(), g.FirstOrderSums(), g.SecondOrderSums())
}

// TestSearchBackendEquivalence is the fast-path cross-check: under the
// same rng seed, the quickselect backend must produce groups with
// aggregate statistics identical (bit for bit — members are added in the
// same ascending-distance order) to the reference scan-sort path. The
// reference draws from an injected rng.New(9), the other from WithSeed(9),
// so this also pins that the two give one stream.
func TestSearchBackendEquivalence(t *testing.T) {
	for _, tc := range []struct {
		n, d, k int
	}{
		{60, 2, 5},
		{237, 3, 10}, // leftovers exercise the nearest-group fold-in
		{500, 4, 25}, // many groups
		{120, 8, 7},  // moderate dimension
		{40, 2, 40},  // one group swallows everything
		{35, 2, 50},  // fewer records than k: single undersized group
	} {
		records := gaussianRecords(uint64(tc.n)*31+uint64(tc.d), tc.n, tc.d)
		scan, err := NewCondenser(tc.k, WithRandomSource(rng.New(9)), WithNeighborSearch(SearchScanSort))
		if err != nil {
			t.Fatal(err)
		}
		reference, refMembers, err := scan.StaticWithMembers(records)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCondenser(tc.k, WithSeed(9), WithNeighborSearch(SearchAuto))
		if err != nil {
			t.Fatal(err)
		}
		cond, members, err := c.StaticWithMembers(records)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if cond.NumGroups() != reference.NumGroups() {
			t.Fatalf("n=%d k=%d: %d groups, reference has %d",
				tc.n, tc.k, cond.NumGroups(), reference.NumGroups())
		}
		refGroups := reference.Groups()
		gotGroups := cond.Groups()
		for gi := range refGroups {
			want, got := groupKey(refGroups[gi]), groupKey(gotGroups[gi])
			if got != want {
				t.Errorf("n=%d k=%d group %d:\n got %s\nwant %s",
					tc.n, tc.k, gi, got, want)
			}
		}
		for gi := range refMembers {
			if len(members[gi]) != len(refMembers[gi]) {
				t.Errorf("n=%d k=%d group %d: %d members, reference %d",
					tc.n, tc.k, gi, len(members[gi]), len(refMembers[gi]))
				continue
			}
			for mi := range refMembers[gi] {
				if members[gi][mi] != refMembers[gi][mi] {
					t.Errorf("n=%d k=%d group %d member %d: %d, reference %d",
						tc.n, tc.k, gi, mi, members[gi][mi], refMembers[gi][mi])
					break
				}
			}
		}
	}
}

// TestParallelSweepEquivalence forces the chunked parallel sweep (the
// cutoff normally hides it at test sizes is bypassed by record count) and
// checks it against the single-threaded sweep.
func TestParallelSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large record set")
	}
	records := gaussianRecords(77, parallelSweepCutoff+500, 3)
	serial, err := NewCondenser(40, WithSeed(3), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewCondenser(40, WithSeed(3), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("parallel sweep: %d groups, serial %d", got.NumGroups(), want.NumGroups())
	}
	wantGroups, gotGroups := want.Groups(), got.Groups()
	for gi := range wantGroups {
		if groupKey(gotGroups[gi]) != groupKey(wantGroups[gi]) {
			t.Fatalf("parallel sweep diverged at group %d", gi)
		}
	}
}

// TestCondenserSharedAcrossGoroutines exercises the documented concurrency
// contract (seed-configured Condensers are shareable) under -race.
func TestCondenserSharedAcrossGoroutines(t *testing.T) {
	records := gaussianRecords(6, 300, 3)
	c, err := NewCondenser(10, WithSeed(1), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	conds := make([]*Condensation, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cond, err := c.Static(records)
			conds[w] = cond
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w < workers; w++ {
		if conds[w].NumGroups() != conds[0].NumGroups() {
			t.Fatalf("worker %d saw %d groups, worker 0 saw %d",
				w, conds[w].NumGroups(), conds[0].NumGroups())
		}
	}
}

func TestCondenserDynamic(t *testing.T) {
	c, err := NewCondenser(4, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := c.Dynamic(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn, gaussianRecords(8, 50, 2)); err != nil {
		t.Fatal(err)
	}
	cond := dyn.Condensation()
	if cond.TotalCount() != 50 || cond.K() != 4 {
		t.Errorf("dynamic condensation: %d records k=%d", cond.TotalCount(), cond.K())
	}

	// Bootstrap = static init + dynamic maintenance in one call.
	dyn2, err := c.Bootstrap(gaussianRecords(9, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := addEach(dyn2, gaussianRecords(10, 30, 2)); err != nil {
		t.Fatal(err)
	}
	if got := dyn2.Condensation().TotalCount(); got != 70 {
		t.Errorf("bootstrap total = %d, want 70", got)
	}
}

func TestCondenserValidation(t *testing.T) {
	if _, err := NewCondenser(0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewCondenser(2, WithSynthesis(Synthesis(9))); err == nil {
		t.Error("bad synthesis accepted")
	}
	if _, err := NewCondenser(2, WithNeighborSearch(NeighborSearch(9))); err == nil {
		t.Error("bad search backend accepted")
	}
	if _, err := NewCondenser(2, WithIndexPrecision(Float64)); err != nil {
		t.Errorf("deprecated WithIndexPrecision(Float64) refused: %v", err)
	}
	if _, err := NewCondenser(2, WithIndexPrecision(IndexPrecision(1))); err == nil {
		t.Error("index precision other than Float64 accepted")
	}
	if _, err := NewCondenser(2, WithMode(Mode(9))); err == nil {
		t.Error("bad mode accepted")
	}
	c, err := NewCondenser(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DynamicFrom(nil); err == nil {
		t.Error("nil initial condensation accepted")
	}
	if c.K() != 3 {
		t.Errorf("K = %d", c.K())
	}
}
