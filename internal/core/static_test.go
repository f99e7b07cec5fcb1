package core

import (
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// condense runs Condenser.Static on an injected rng source, so a test pins
// the stream its groups are drawn from.
func condense(records []mat.Vector, k int, r *rng.Source, o Options) (*Condensation, error) {
	cond, _, err := condenseMembers(records, k, r, o)
	return cond, err
}

// condenseMembers is condense through Condenser.StaticWithMembers.
func condenseMembers(records []mat.Vector, k int, r *rng.Source, o Options) (*Condensation, [][]int, error) {
	c, err := NewCondenser(k, WithRandomSource(r), WithOptions(o))
	if err != nil {
		return nil, nil, err
	}
	return c.StaticWithMembers(records)
}

// clusteredRecords returns two well-separated 2-D clusters of the given
// sizes, deterministic for a seed.
func clusteredRecords(seed uint64, nA, nB int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, 0, nA+nB)
	for i := 0; i < nA; i++ {
		out = append(out, mat.Vector{r.NormMeanStd(0, 1), r.NormMeanStd(0, 1)})
	}
	for i := 0; i < nB; i++ {
		out = append(out, mat.Vector{r.NormMeanStd(20, 1), r.NormMeanStd(20, 1)})
	}
	return out
}

func TestStaticBasicInvariants(t *testing.T) {
	recs := clusteredRecords(1, 30, 30)
	for _, k := range []int{1, 2, 5, 7, 10} {
		cond, err := condense(recs, k, rng.New(2), Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := cond.TotalCount(); got != len(recs) {
			t.Errorf("k=%d: TotalCount = %d, want %d", k, got, len(recs))
		}
		if got := cond.MinGroupSize(); got < k {
			t.Errorf("k=%d: MinGroupSize = %d < k", k, got)
		}
		if cond.K() != k || cond.Dim() != 2 {
			t.Errorf("k=%d: K=%d Dim=%d", k, cond.K(), cond.Dim())
		}
		if avg := cond.AverageGroupSize(); avg < float64(k) {
			t.Errorf("k=%d: AverageGroupSize = %g < k", k, avg)
		}
	}
}

func TestStaticGroupCountExact(t *testing.T) {
	// 20 records with k=5 and no leftovers: exactly 4 groups of 5.
	recs := clusteredRecords(3, 10, 10)
	cond, err := condense(recs, 5, rng.New(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", cond.NumGroups())
	}
	for _, g := range cond.Groups() {
		if g.N() != 5 {
			t.Errorf("group size %d, want 5", g.N())
		}
	}
}

func TestStaticLeftoverNearestGroup(t *testing.T) {
	// 23 records with k=5: 4 groups plus 3 leftovers absorbed, so sizes
	// sum to 23 and every group has ≥ 5.
	recs := clusteredRecords(5, 12, 11)
	cond, err := condense(recs, 5, rng.New(6), Options{Leftover: LeftoverNearestGroup})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", cond.NumGroups())
	}
	if cond.TotalCount() != 23 {
		t.Errorf("TotalCount = %d, want 23", cond.TotalCount())
	}
	if cond.MinGroupSize() < 5 {
		t.Errorf("MinGroupSize = %d < 5", cond.MinGroupSize())
	}
}

func TestStaticLeftoverOwnGroup(t *testing.T) {
	recs := clusteredRecords(7, 12, 11)
	cond, err := condense(recs, 5, rng.New(8), Options{Leftover: LeftoverOwnGroup})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 5 {
		t.Fatalf("NumGroups = %d, want 5 (4 full + 1 leftover)", cond.NumGroups())
	}
	if cond.MinGroupSize() != 3 {
		t.Errorf("MinGroupSize = %d, want 3", cond.MinGroupSize())
	}
}

func TestStaticFewerRecordsThanK(t *testing.T) {
	recs := clusteredRecords(9, 3, 0)
	cond, err := condense(recs, 10, rng.New(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 1 || cond.TotalCount() != 3 {
		t.Errorf("NumGroups = %d TotalCount = %d", cond.NumGroups(), cond.TotalCount())
	}
}

func TestStaticLocality(t *testing.T) {
	// With two clusters 20σ apart and k well below the cluster size, no
	// group should straddle the clusters: every group centroid lies near
	// one cluster center, never in the middle.
	recs := clusteredRecords(11, 40, 40)
	cond, err := condense(recs, 8, rng.New(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cents, err := cond.Centroids()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cents {
		dA := c.Dist(mat.Vector{0, 0})
		dB := c.Dist(mat.Vector{20, 20})
		if math.Min(dA, dB) > 5 {
			t.Errorf("group %d centroid %v is between clusters (dA=%.1f dB=%.1f)", i, c, dA, dB)
		}
	}
}

func TestStaticPreservesGlobalMoments(t *testing.T) {
	// Merging all group statistics must reproduce the exact global moments
	// — condensation loses within-group detail, not totals.
	recs := clusteredRecords(13, 25, 25)
	cond, err := condense(recs, 5, rng.New(14), Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := stats.NewGroup(2)
	for _, g := range cond.Groups() {
		if err := merged.Merge(g); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := stats.FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.FirstOrderSums().Equal(bulk.FirstOrderSums(), 1e-8) {
		t.Error("merged first-order sums differ from bulk")
	}
	if !merged.SecondOrderSums().Equal(bulk.SecondOrderSums(), 1e-6) {
		t.Error("merged second-order sums differ from bulk")
	}
}

func TestStaticErrors(t *testing.T) {
	if _, err := condense(nil, 2, rng.New(1), Options{}); err == nil {
		t.Error("empty records accepted")
	}
	ragged := []mat.Vector{{1, 2}, {3}}
	if _, err := condense(ragged, 1, rng.New(1), Options{}); err == nil {
		t.Error("ragged records accepted")
	}
	nan := []mat.Vector{{1, math.NaN()}}
	if _, err := condense(nan, 1, rng.New(1), Options{}); err == nil {
		t.Error("NaN records accepted")
	}
	// Records beyond ±MaxRecordMagnitude are refused as the stream refuses
	// them: four at 5e153 overflow the eigensolve and synthesize NaN.
	huge := []mat.Vector{{5e153, 5e153}, {-5e153, 5e153}, {5e153, -5e153}, {-5e153, -5e153}}
	if _, err := condense(huge, 4, rng.New(1), Options{}); err == nil {
		t.Error("records beyond ±MaxRecordMagnitude accepted")
	}
	if c, err := NewCondenser(4); err != nil {
		t.Fatal(err)
	} else if _, err := c.Bootstrap(huge); err == nil {
		t.Error("Bootstrap accepted records beyond ±MaxRecordMagnitude")
	}
}

func TestStaticDoesNotMutateInput(t *testing.T) {
	recs := clusteredRecords(17, 10, 10)
	orig := make([]mat.Vector, len(recs))
	for i, x := range recs {
		orig[i] = x.Clone()
	}
	if _, err := condense(recs, 3, rng.New(18), Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !recs[i].Equal(orig[i], 0) {
			t.Fatalf("record %d mutated", i)
		}
	}
}

func TestStaticDeterministicGivenSeed(t *testing.T) {
	recs := clusteredRecords(19, 20, 20)
	c1, err := condense(recs, 4, rng.New(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := condense(recs, 4, rng.New(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c1.NumGroups() != c2.NumGroups() {
		t.Fatal("group counts differ across identical runs")
	}
	g1, g2 := c1.Groups(), c2.Groups()
	for i := range g1 {
		if g1[i].N() != g2[i].N() || !g1[i].FirstOrderSums().Equal(g2[i].FirstOrderSums(), 0) {
			t.Fatalf("group %d differs across identical runs", i)
		}
	}
}

func TestStaticK1GroupsAreSingletons(t *testing.T) {
	recs := clusteredRecords(21, 7, 0)
	cond, err := condense(recs, 1, rng.New(22), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != len(recs) {
		t.Fatalf("NumGroups = %d, want %d", cond.NumGroups(), len(recs))
	}
	for _, g := range cond.Groups() {
		if g.N() != 1 {
			t.Errorf("k=1 group has %d records", g.N())
		}
	}
}

func TestCondensationGroupsAreCopies(t *testing.T) {
	recs := clusteredRecords(23, 6, 0)
	cond, err := condense(recs, 3, rng.New(24), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs := cond.Groups()
	if err := gs[0].Add(mat.Vector{100, 100}); err != nil {
		t.Fatal(err)
	}
	if cond.TotalCount() != 6 {
		t.Error("Groups() exposes internal state")
	}
}

func TestCondensationEmptyAccessors(t *testing.T) {
	c := newCondensation(2, 3, Options{}, nil)
	if c.AverageGroupSize() != 0 || c.MinGroupSize() != 0 || c.NumGroups() != 0 {
		t.Error("empty condensation accessors nonzero")
	}
}

func TestStaticWithMembersPartition(t *testing.T) {
	recs := clusteredRecords(25, 13, 14)
	for _, k := range []int{1, 4, 9} {
		cond, members, err := condenseMembers(recs, k, rng.New(26), Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(members) != cond.NumGroups() {
			t.Fatalf("k=%d: %d member lists for %d groups", k, len(members), cond.NumGroups())
		}
		seen := make([]bool, len(recs))
		for gi, member := range members {
			if len(member) != cond.Groups()[gi].N() {
				t.Errorf("k=%d: group %d lists %d members but holds %d records",
					k, gi, len(member), cond.Groups()[gi].N())
			}
			for _, idx := range member {
				if idx < 0 || idx >= len(recs) || seen[idx] {
					t.Fatalf("k=%d: invalid or duplicated member index %d", k, idx)
				}
				seen[idx] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("k=%d: record %d not in any group", k, i)
			}
		}
	}
}

func TestStaticWithMembersStatsMatchMembers(t *testing.T) {
	recs := clusteredRecords(27, 10, 10)
	cond, members, err := condenseMembers(recs, 4, rng.New(28), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for gi, member := range members {
		rebuilt := stats.NewGroup(2)
		for _, idx := range member {
			if err := rebuilt.Add(recs[idx]); err != nil {
				t.Fatal(err)
			}
		}
		g := cond.Groups()[gi]
		if !rebuilt.FirstOrderSums().Equal(g.FirstOrderSums(), 1e-9) {
			t.Errorf("group %d statistics do not match its member list", gi)
		}
	}
}
