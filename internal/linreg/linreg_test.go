package linreg

import (
	"math"
	"testing"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

func linearData(seed uint64, n int, noise float64) *dataset.Dataset {
	r := rng.New(seed)
	ds := &dataset.Dataset{Task: dataset.Regression, Attrs: []string{"a", "b"}}
	for i := 0; i < n; i++ {
		x := mat.Vector{r.Uniform(-3, 3), r.Uniform(0, 5)}
		y := 2*x[0] - 0.5*x[1] + 7 + noise*r.Norm()
		ds.X = append(ds.X, x)
		ds.Targets = append(ds.Targets, y)
	}
	return ds
}

func TestTrainExactRecovery(t *testing.T) {
	ds := linearData(1, 200, 0)
	m, err := Train(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 1e-8 || math.Abs(m.Coef[1]+0.5) > 1e-8 || math.Abs(m.Intercept-7) > 1e-8 {
		t.Errorf("fit %v + %g, want [2 -0.5] + 7", m.Coef, m.Intercept)
	}
	r2, err := m.R2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2-1) > 1e-10 {
		t.Errorf("R² = %g, want 1", r2)
	}
}

func TestTrainNoisyData(t *testing.T) {
	ds := linearData(2, 2000, 0.5)
	m, err := Train(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 0.05 || math.Abs(m.Intercept-7) > 0.1 {
		t.Errorf("noisy fit %v + %g", m.Coef, m.Intercept)
	}
	r2, err := m.R2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Errorf("R² = %g", r2)
	}
}

// The statistics-direct path must match the record path exactly: the
// normal equations are built from the same moments.
func TestFromGroupsMatchesTrainExactly(t *testing.T) {
	ds := linearData(3, 150, 0.3)
	direct, err := Train(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Jointly condense (features ‖ target) at k=10, keep the group stats.
	d := ds.Dim()
	joint := make([]mat.Vector, ds.Len())
	for i, x := range ds.X {
		row := make(mat.Vector, d+1)
		copy(row, x)
		row[d] = ds.Targets[i]
		joint[i] = row
	}
	c, err := core.NewCondenser(10, core.WithRandomSource(rng.New(4)))
	if err != nil {
		t.Fatal(err)
	}
	cond, err := c.Static(joint)
	if err != nil {
		t.Fatal(err)
	}
	fromStats, err := FromGroups(cond.Groups(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fromStats.Coef.Equal(direct.Coef, 1e-8) {
		t.Errorf("coef %v vs %v", fromStats.Coef, direct.Coef)
	}
	if math.Abs(fromStats.Intercept-direct.Intercept) > 1e-8 {
		t.Errorf("intercept %g vs %g", fromStats.Intercept, direct.Intercept)
	}
}

func TestRidgeStabilizesCollinear(t *testing.T) {
	// Two identical features: plain OLS is singular, ridge resolves it.
	r := rng.New(5)
	ds := &dataset.Dataset{Task: dataset.Regression, Attrs: []string{"a", "a2"}}
	for i := 0; i < 100; i++ {
		v := r.Uniform(-1, 1)
		ds.X = append(ds.X, mat.Vector{v, v})
		ds.Targets = append(ds.Targets, 3*v)
	}
	if _, err := Train(ds, Options{}); err == nil {
		t.Log("plain OLS survived collinearity (numerically lucky) — acceptable")
	}
	m, err := Train(ds, Options{Ridge: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict(mat.Vector{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.5) > 1e-3 {
		t.Errorf("ridge prediction %g, want 1.5", got)
	}
}

func TestLinRegOnAnonymizedAbalone(t *testing.T) {
	ds, err := datagen.ByName("abalone", 6)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	train, test, err := ds.TrainTestSplit(0.75, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Train(train, Options{})
	if err != nil {
		t.Fatal(err)
	}
	origR2, err := orig.R2(test)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCondenser(20, core.WithRandomSource(r.Split()))
	if err != nil {
		t.Fatal(err)
	}
	anon, _, err := c.Anonymize(train)
	if err != nil {
		t.Fatal(err)
	}
	anonModel, err := Train(anon, Options{})
	if err != nil {
		t.Fatal(err)
	}
	anonR2, err := anonModel.R2(test)
	if err != nil {
		t.Fatal(err)
	}
	if origR2 < 0.5 {
		t.Fatalf("original R² = %g; abalone generator not linearly predictable", origR2)
	}
	if anonR2 < origR2-0.1 {
		t.Errorf("anonymized R² %.4f vs original %.4f", anonR2, origR2)
	}
}

func TestTrainErrors(t *testing.T) {
	cls := &dataset.Dataset{Task: dataset.Classification, X: []mat.Vector{{1}}, Labels: []int{0}}
	if _, err := Train(cls, Options{}); err == nil {
		t.Error("classification data accepted")
	}
	empty := &dataset.Dataset{Task: dataset.Regression}
	if _, err := Train(empty, Options{}); err == nil {
		t.Error("empty data accepted")
	}
	bad := linearData(8, 5, 0)
	bad.Targets = bad.Targets[:3]
	if _, err := Train(bad, Options{}); err == nil {
		t.Error("invalid data accepted")
	}
}

func TestFromGroupsErrors(t *testing.T) {
	if _, err := FromGroups(nil, Options{}); err == nil {
		t.Error("no groups accepted")
	}
	g1 := stats.NewGroup(1) // joint dim 1: no features
	_ = g1.Add(mat.Vector{1})
	if _, err := FromGroups([]*stats.Group{g1}, Options{}); err == nil {
		t.Error("joint dimension 1 accepted")
	}
	g2 := stats.NewGroup(3)
	_ = g2.Add(mat.Vector{1, 2, 3})
	if _, err := FromGroups([]*stats.Group{g2}, Options{Ridge: -1}); err == nil {
		t.Error("negative ridge accepted")
	}
	g3 := stats.NewGroup(2)
	mixed := []*stats.Group{g2, g3}
	_ = g3.Add(mat.Vector{1, 2})
	if _, err := FromGroups(mixed, Options{}); err == nil {
		t.Error("mixed dimensions accepted")
	}
}

func TestPredictErrors(t *testing.T) {
	m, err := Train(linearData(9, 20, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(mat.Vector{1}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if _, err := m.Predict(mat.Vector{1, math.NaN()}); err == nil {
		t.Error("NaN query accepted")
	}
	cls := &dataset.Dataset{Task: dataset.Classification, X: []mat.Vector{{1, 2}}, Labels: []int{0}}
	if _, err := m.R2(cls); err == nil {
		t.Error("R2 on classification data accepted")
	}
	empty := &dataset.Dataset{Task: dataset.Regression}
	if _, err := m.R2(empty); err == nil {
		t.Error("R2 on empty data accepted")
	}
}

func TestR2ConstantTarget(t *testing.T) {
	ds := &dataset.Dataset{
		Task:    dataset.Regression,
		X:       []mat.Vector{{1}, {2}, {3}},
		Targets: []float64{5, 5, 5},
	}
	m, err := Train(ds, Options{Ridge: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.R2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 1 && !math.IsInf(r2, -1) {
		// A perfect fit of the constant yields 1; any residual yields −Inf
		// by the documented convention.
		if math.Abs(r2-1) > 1e-6 {
			t.Errorf("R² on constant target = %g", r2)
		}
	}
}
