package privacy

import (
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

func groupOf(t *testing.T, pts ...mat.Vector) *stats.Group {
	t.Helper()
	g, err := stats.FromRecords(pts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExpectedReidentification(t *testing.T) {
	// Two groups of 4: probability 1/4.
	groups := []*stats.Group{}
	for g := 0; g < 2; g++ {
		pts := make([]mat.Vector, 4)
		for i := range pts {
			pts[i] = mat.Vector{float64(g*10 + i)}
		}
		groups = append(groups, groupOf(t, pts...))
	}
	p, err := ExpectedReidentification(groups)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.25) > 1e-12 {
		t.Errorf("ExpectedReidentification = %g, want 0.25", p)
	}
	if _, err := ExpectedReidentification(nil); err == nil {
		t.Error("empty groups accepted")
	}
}

func TestLinkageAttackPerfectLeak(t *testing.T) {
	// Synthetic records identical to the originals: the attack links
	// every original to its own group.
	orig := [][]mat.Vector{
		{{0, 0}, {0.1, 0}},
		{{10, 10}, {10.1, 10}},
	}
	rate, err := LinkageAttack(orig, orig)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 1 {
		t.Errorf("self-linkage rate = %g, want 1", rate)
	}
}

func TestLinkageAttackWellMixedIsNearBaseline(t *testing.T) {
	// All groups drawn from one distribution and synthesized as a single
	// shared blob: linkage cannot beat random by much.
	r := rng.New(1)
	const groups, perGroup = 10, 20
	orig := make([][]mat.Vector, groups)
	synth := make([][]mat.Vector, groups)
	sizes := make([]int, groups)
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			orig[g] = append(orig[g], mat.Vector{r.Norm(), r.Norm()})
			synth[g] = append(synth[g], mat.Vector{r.Norm(), r.Norm()})
		}
		sizes[g] = perGroup
	}
	rate, err := LinkageAttack(orig, synth)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RandomLinkageRate(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rate > base+0.15 {
		t.Errorf("linkage rate %g on unstructured data, baseline %g", rate, base)
	}
}

func TestLinkageAttackErrors(t *testing.T) {
	if _, err := LinkageAttack(nil, nil); err == nil {
		t.Error("empty groups accepted")
	}
	if _, err := LinkageAttack(make([][]mat.Vector, 2), make([][]mat.Vector, 3)); err == nil {
		t.Error("mismatched group counts accepted")
	}
	empty := make([][]mat.Vector, 1)
	if _, err := LinkageAttack(empty, empty); err == nil {
		t.Error("no synthetic records accepted")
	}
}

func TestRandomLinkageRate(t *testing.T) {
	rate, err := RandomLinkageRate([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-0.5) > 1e-12 {
		t.Errorf("RandomLinkageRate([5 5]) = %g, want 0.5", rate)
	}
	rate, err = RandomLinkageRate([]int{10})
	if err != nil {
		t.Fatal(err)
	}
	if rate != 1 {
		t.Errorf("single group rate = %g, want 1", rate)
	}
	if _, err := RandomLinkageRate(nil); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := RandomLinkageRate([]int{0}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestGroupPrivacyVolume(t *testing.T) {
	// Uniform square of side a has eigenvalues a²/12 each, so
	// 2^h = a·a.
	r := rng.New(2)
	pts := make([]mat.Vector, 20000)
	for i := range pts {
		pts[i] = mat.Vector{r.Uniform(0, 2), r.Uniform(0, 4)}
	}
	g, err := stats.FromRecords(pts)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := GroupPrivacyVolume(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vol-8) > 0.3 {
		t.Errorf("volume = %g, want ≈ 8 (2×4 box)", vol)
	}
}

func TestGroupPrivacyVolumeDegenerate(t *testing.T) {
	g := groupOf(t, mat.Vector{1, 1}, mat.Vector{1, 1})
	vol, err := GroupPrivacyVolume(g)
	if err != nil {
		t.Fatal(err)
	}
	if vol != 0 {
		t.Errorf("point-mass volume = %g, want 0", vol)
	}
}

func TestMeanLogPrivacyVolumeIncreasesWithK(t *testing.T) {
	// Larger groups over the same data spread wider, so the aggregate
	// privacy volume must grow with group size.
	r := rng.New(3)
	pts := make([]mat.Vector, 64)
	for i := range pts {
		pts[i] = mat.Vector{r.Norm(), r.Norm()}
	}
	makeGroups := func(size int) []*stats.Group {
		var gs []*stats.Group
		for i := 0; i+size <= len(pts); i += size {
			g, err := stats.FromRecords(pts[i : i+size])
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
		return gs
	}
	small, err := MeanLogPrivacyVolume(makeGroups(4))
	if err != nil {
		t.Fatal(err)
	}
	large, err := MeanLogPrivacyVolume(makeGroups(16))
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("log volume did not grow with group size: %g (k=4) vs %g (k=16)", small, large)
	}
	if _, err := MeanLogPrivacyVolume(nil); err == nil {
		t.Error("empty groups accepted")
	}
}
