package nb

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

func separable(seed uint64, perClass int) *dataset.Dataset {
	r := rng.New(seed)
	ds := &dataset.Dataset{
		Task:       dataset.Classification,
		Attrs:      []string{"x", "y"},
		ClassNames: []string{"a", "b"},
	}
	for i := 0; i < perClass; i++ {
		ds.X = append(ds.X, mat.Vector{r.Norm(), r.Norm()})
		ds.Labels = append(ds.Labels, 0)
		ds.X = append(ds.X, mat.Vector{6 + r.Norm(), 6 + r.Norm()})
		ds.Labels = append(ds.Labels, 1)
	}
	return ds
}

func TestTrainSeparable(t *testing.T) {
	train := separable(1, 100)
	test := separable(2, 30)
	c, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := c.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Errorf("accuracy %g on separable data", acc)
	}
}

// The headline equivalence: a classifier fitted from the condensation's
// group statistics (no synthesis!) matches one fitted on raw records,
// because merging groups reproduces the per-class moments exactly.
func TestFromGroupsMatchesTrainExactly(t *testing.T) {
	train := separable(3, 60)
	direct, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	// Condense each class and hand the group statistics over.
	classGroups := make(map[int][]*stats.Group)
	r := rng.New(4)
	for label, idx := range train.ByClass() {
		recs := make([]mat.Vector, len(idx))
		for i, ri := range idx {
			recs[i] = train.X[ri]
		}
		c, err := core.NewCondenser(10, core.WithRandomSource(r.Split()))
		if err != nil {
			t.Fatal(err)
		}
		cond, err := c.Static(recs)
		if err != nil {
			t.Fatal(err)
		}
		classGroups[label] = cond.Groups()
	}
	fromStats, err := FromGroups(train.NumClasses(), classGroups)
	if err != nil {
		t.Fatal(err)
	}
	// Compare model predictions and log-posteriors on a probe grid.
	probe := separable(5, 40)
	for i, x := range probe.X {
		pd, err := direct.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := fromStats.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if pd != ps {
			t.Fatalf("record %d: direct predicts %d, statistics-path predicts %d", i, pd, ps)
		}
		for label := 0; label < 2; label++ {
			ld, err := direct.LogPosterior(label, x)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := fromStats.LogPosterior(label, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ld-ls) > 1e-6*(1+math.Abs(ld)) {
				t.Fatalf("log-posterior differs: %g vs %g", ld, ls)
			}
		}
	}
}

func TestNBOnAnonymizedPima(t *testing.T) {
	ds := datagen.Pima(6)
	r := rng.New(7)
	train, test, err := ds.TrainTestSplit(0.75, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Train(train)
	if err != nil {
		t.Fatal(err)
	}
	origAcc, err := orig.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCondenser(15, core.WithRandomSource(r.Split()))
	if err != nil {
		t.Fatal(err)
	}
	anon, _, err := c.Anonymize(train)
	if err != nil {
		t.Fatal(err)
	}
	anonClf, err := Train(anon)
	if err != nil {
		t.Fatal(err)
	}
	anonAcc, err := anonClf.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if anonAcc < origAcc-0.08 {
		t.Errorf("NB on anonymized %.4f vs original %.4f", anonAcc, origAcc)
	}
}

func TestZeroVarianceAttribute(t *testing.T) {
	ds := &dataset.Dataset{
		Task:   dataset.Classification,
		X:      []mat.Vector{{1, 0}, {1, 1}, {1, 10}, {1, 11}},
		Labels: []int{0, 0, 1, 1},
	}
	c, err := Train(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(mat.Vector{1, 10.5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("Predict = %d, want 1", got)
	}
}

func TestAbsentClassNeverWins(t *testing.T) {
	groups := map[int][]*stats.Group{}
	g := stats.NewGroup(1)
	for _, v := range []float64{1, 2, 3} {
		if err := g.Add(mat.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	groups[0] = []*stats.Group{g}
	c, err := FromGroups(3, groups) // classes 1, 2 absent
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(mat.Vector{2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Predict = %d, want 0", got)
	}
	lp, err := c.LogPosterior(1, mat.Vector{2})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lp, -1) {
		t.Errorf("absent class log posterior = %g, want -Inf", lp)
	}
}

func TestTrainErrors(t *testing.T) {
	reg := &dataset.Dataset{Task: dataset.Regression, X: []mat.Vector{{1}}, Targets: []float64{1}}
	if _, err := Train(reg); err == nil {
		t.Error("regression data accepted")
	}
	empty := &dataset.Dataset{Task: dataset.Classification}
	if _, err := Train(empty); err == nil {
		t.Error("empty data accepted")
	}
	bad := separable(8, 3)
	bad.Labels = bad.Labels[:2]
	if _, err := Train(bad); err == nil {
		t.Error("invalid data accepted")
	}
}

func TestFromGroupsErrors(t *testing.T) {
	if _, err := FromGroups(0, nil); err == nil {
		t.Error("0 classes accepted")
	}
	if _, err := FromGroups(2, map[int][]*stats.Group{}); err == nil {
		t.Error("no groups accepted")
	}
	g1 := stats.NewGroup(1)
	g2 := stats.NewGroup(2)
	_ = g1.Add(mat.Vector{1})
	_ = g2.Add(mat.Vector{1, 2})
	if _, err := FromGroups(2, map[int][]*stats.Group{0: {g1}, 1: {g2}}); err == nil {
		t.Error("mixed dimensions accepted")
	}
	if _, err := FromGroups(1, map[int][]*stats.Group{5: {g1}}); err == nil {
		t.Error("out-of-range label accepted")
	}
	emptyGroups := map[int][]*stats.Group{0: {}}
	if _, err := FromGroups(1, emptyGroups); err == nil {
		t.Error("all-empty group lists accepted")
	}
}

func TestPredictErrors(t *testing.T) {
	c, err := Train(separable(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(mat.Vector{1}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if _, err := c.Predict(mat.Vector{1, math.NaN()}); err == nil {
		t.Error("NaN query accepted")
	}
	if _, err := c.LogPosterior(99, mat.Vector{1, 2}); err == nil {
		t.Error("bad label accepted")
	}
	if c.Dim() != 2 {
		t.Errorf("Dim = %d", c.Dim())
	}
}
