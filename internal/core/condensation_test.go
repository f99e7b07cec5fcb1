package core

import (
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// correlatedRecords draws records with a strong known correlation between
// the two attributes.
func correlatedRecords(seed uint64, n int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		base := r.Norm()
		out[i] = mat.Vector{3 * base, 3*base + 0.5*r.Norm()}
	}
	return out
}

func TestSynthesizeCountAndDim(t *testing.T) {
	recs := correlatedRecords(1, 60)
	cond, err := condense(recs, 6, rng.New(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := cond.Synthesize(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(synth) != len(recs) {
		t.Fatalf("synthesized %d records, want %d", len(synth), len(recs))
	}
	for i, x := range synth {
		if len(x) != 2 || !x.IsFinite() {
			t.Fatalf("synthesized record %d invalid: %v", i, x)
		}
	}
}

func TestSynthesizeK1ReproducesOriginals(t *testing.T) {
	// With k=1 each group holds one record with zero covariance, so the
	// synthesized set equals the original set exactly (up to ordering).
	recs := correlatedRecords(4, 15)
	cond, err := condense(recs, 1, rng.New(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := cond.Synthesize(rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range synth {
		found := false
		for _, o := range recs {
			if s.Equal(o, 1e-9) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("synthesized record %v matches no original", s)
		}
	}
}

func TestSynthesizePreservesGroupMoments(t *testing.T) {
	// Within a single large group, the synthesized sample's mean and
	// covariance must converge to the group statistics.
	recs := correlatedRecords(7, 40)
	g, err := stats.FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Build a condensation holding this one group, then synthesize many
	// replicas by re-seeding.
	cond := newCondensation(2, 40, Options{}, []*stats.Group{g})
	gMean, _ := g.Mean()
	gCov, _ := g.Covariance()

	agg := stats.NewGroup(2)
	for seed := uint64(0); seed < 200; seed++ {
		synth, err := cond.Synthesize(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range synth {
			if err := agg.Add(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	sMean, _ := agg.Mean()
	sCov, _ := agg.Covariance()
	if !sMean.Equal(gMean, 0.1) {
		t.Errorf("synthesized mean %v, want %v", sMean, gMean)
	}
	if !sCov.Equal(gCov, 0.35*(1+gCov.FrobeniusNorm())) {
		t.Errorf("synthesized covariance\n%v\nwant\n%v", sCov, gCov)
	}
}

func TestSynthesizeGaussianPreservesMoments(t *testing.T) {
	recs := correlatedRecords(8, 40)
	g, err := stats.FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	cond := newCondensation(2, 40, Options{Synthesis: SynthesisGaussian}, []*stats.Group{g})
	gMean, _ := g.Mean()

	agg := stats.NewGroup(2)
	for seed := uint64(0); seed < 100; seed++ {
		synth, err := cond.Synthesize(rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range synth {
			if err := agg.Add(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	sMean, _ := agg.Mean()
	if !sMean.Equal(gMean, 0.15) {
		t.Errorf("gaussian synthesized mean %v, want %v", sMean, gMean)
	}
}

func TestSynthesizeUniformIsBounded(t *testing.T) {
	// Uniform synthesis has bounded support: every eigen-coordinate lies
	// within ±√(12λ)/2 of the centroid.
	recs := correlatedRecords(9, 30)
	g, err := stats.FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	cond := newCondensation(2, 30, Options{}, []*stats.Group{g})
	mean, _ := g.Mean()
	eig, _ := g.Eigen()

	synth, err := cond.Synthesize(rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range synth {
		dev := x.Sub(mean)
		for j := 0; j < 2; j++ {
			coord := dev.Dot(eig.Vector(j))
			bound := math.Sqrt(12*eig.Values[j])/2 + 1e-9
			if math.Abs(coord) > bound {
				t.Fatalf("eigen-coordinate %g exceeds uniform bound %g", coord, bound)
			}
		}
	}
}

func TestSynthesizeGroupedAlignment(t *testing.T) {
	recs := correlatedRecords(11, 24)
	cond, err := condense(recs, 4, rng.New(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := cond.SynthesizeGrouped(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != cond.NumGroups() {
		t.Fatalf("%d grouped outputs for %d groups", len(grouped), cond.NumGroups())
	}
	for i, g := range cond.Groups() {
		if len(grouped[i]) != g.N() {
			t.Errorf("group %d: %d synthesized for %d condensed", i, len(grouped[i]), g.N())
		}
	}
}

func TestSynthesizeNilSource(t *testing.T) {
	cond, err := condense(correlatedRecords(14, 10), 2, rng.New(15), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cond.Synthesize(nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cond, err := condense(correlatedRecords(16, 20), 4, rng.New(17), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := cond.Synthesize(rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cond.Synthesize(rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if !s1[i].Equal(s2[i], 0) {
			t.Fatal("synthesis is not deterministic for a fixed seed")
		}
	}
}

func TestOptionStrings(t *testing.T) {
	if SynthesisUniform.String() != "uniform" || SynthesisGaussian.String() != "gaussian" {
		t.Error("Synthesis.String wrong")
	}
	if SplitPrincipal.String() != "principal" || SplitRandom.String() != "random" {
		t.Error("SplitAxis.String wrong")
	}
	if LeftoverNearestGroup.String() != "nearest-group" || LeftoverOwnGroup.String() != "own-group" {
		t.Error("Leftover.String wrong")
	}
	if ModeStatic.String() != "static" || ModeDynamic.String() != "dynamic" {
		t.Error("Mode.String wrong")
	}
	for _, s := range []string{Synthesis(9).String(), SplitAxis(9).String(), Leftover(9).String(), Mode(9).String()} {
		if s == "" {
			t.Error("unknown enum String empty")
		}
	}
}

func TestMergeCondensations(t *testing.T) {
	a, err := condense(correlatedRecords(30, 20), 5, rng.New(31), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := condense(correlatedRecords(32, 12), 3, rng.New(33), Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.TotalCount() != 32 {
		t.Errorf("TotalCount = %d, want 32", merged.TotalCount())
	}
	if merged.NumGroups() != a.NumGroups()+b.NumGroups() {
		t.Errorf("NumGroups = %d", merged.NumGroups())
	}
	if merged.K() != 3 {
		t.Errorf("K = %d, want min(5,3) = 3", merged.K())
	}
	// The merge copies groups: mutating the merge must not leak back.
	if _, err := merged.Synthesize(rng.New(34)); err != nil {
		t.Fatal(err)
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	a, err := condense(correlatedRecords(35, 10), 2, rng.New(36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, nil); err == nil {
		t.Error("nil input accepted")
	}
	recs1D := []mat.Vector{{1}, {2}, {3}, {4}}
	b, err := condense(recs1D, 2, rng.New(37), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, b); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
