package core

import (
	"testing"

	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
)

// toyClassification builds a two-class data set with well-separated
// classes.
func toyClassification(seed uint64, perClass int) *dataset.Dataset {
	r := rng.New(seed)
	ds := &dataset.Dataset{
		Name:       "toy",
		Attrs:      []string{"x", "y"},
		ClassNames: []string{"a", "b"},
		Task:       dataset.Classification,
	}
	for i := 0; i < perClass; i++ {
		ds.X = append(ds.X, mat.Vector{r.Norm(), r.Norm()})
		ds.Labels = append(ds.Labels, 0)
	}
	for i := 0; i < perClass; i++ {
		ds.X = append(ds.X, mat.Vector{10 + r.Norm(), 10 + r.Norm()})
		ds.Labels = append(ds.Labels, 1)
	}
	return ds
}

// anonymize runs Condenser.Anonymize on an injected rng source.
func anonymize(ds *dataset.Dataset, k int, r *rng.Source, opts ...CondenserOption) (*dataset.Dataset, *Report, error) {
	c, err := NewCondenser(k, append(opts, WithRandomSource(r))...)
	if err != nil {
		return nil, nil, err
	}
	return c.Anonymize(ds)
}

func toyRegression(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	ds := &dataset.Dataset{
		Name:  "toyreg",
		Attrs: []string{"x"},
		Task:  dataset.Regression,
	}
	for i := 0; i < n; i++ {
		x := r.Uniform(0, 10)
		ds.X = append(ds.X, mat.Vector{x})
		ds.Targets = append(ds.Targets, 2*x+r.NormMeanStd(0, 0.1))
	}
	return ds
}

func TestAnonymizeClassificationStatic(t *testing.T) {
	ds := toyClassification(1, 30)
	anon, report, err := anonymize(ds, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := anon.Validate(); err != nil {
		t.Fatal(err)
	}
	if anon.Len() != ds.Len() {
		t.Errorf("anonymized %d records, want %d", anon.Len(), ds.Len())
	}
	counts := anon.ClassCounts()
	if counts[0] != 30 || counts[1] != 30 {
		t.Errorf("class counts %v, want [30 30]", counts)
	}
	if len(report.Classes) != 2 {
		t.Fatalf("%d class reports", len(report.Classes))
	}
	for _, cr := range report.Classes {
		if cr.MinGroupSize < 5 {
			t.Errorf("class %d min group size %d < k", cr.Label, cr.MinGroupSize)
		}
	}
	if report.AvgGroupSize() < 5 {
		t.Errorf("AvgGroupSize = %g < k", report.AvgGroupSize())
	}
	if report.TotalRecords() != 60 {
		t.Errorf("TotalRecords = %d", report.TotalRecords())
	}
}

func TestAnonymizeClassesStaySeparated(t *testing.T) {
	// With classes 10σ apart, every synthesized class-0 record must stay
	// far from the class-1 region, or the anonymized labels are wrong.
	ds := toyClassification(3, 40)
	anon, _, err := anonymize(ds, 8, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range anon.X {
		nearA := x.Dist(mat.Vector{0, 0}) < x.Dist(mat.Vector{10, 10})
		if nearA != (anon.Labels[i] == 0) {
			t.Errorf("record %d at %v labelled %d", i, x, anon.Labels[i])
		}
	}
}

func TestAnonymizeClassificationDynamic(t *testing.T) {
	ds := toyClassification(5, 50)
	anon, report, err := anonymize(ds, 5, rng.New(6), WithMode(ModeDynamic), WithInitialFraction(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if anon.Len() != ds.Len() {
		t.Errorf("anonymized %d records, want %d", anon.Len(), ds.Len())
	}
	// Dynamic maintenance keeps groups in [k, 2k), so the average group
	// size must be in a sane band.
	if avg := report.AvgGroupSize(); avg < 5 || avg >= 10 {
		t.Errorf("dynamic AvgGroupSize = %g, want in [5, 10)", avg)
	}
}

func TestAnonymizeRegression(t *testing.T) {
	ds := toyRegression(7, 80)
	anon, report, err := anonymize(ds, 8, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := anon.Validate(); err != nil {
		t.Fatal(err)
	}
	if anon.Len() != 80 || anon.Dim() != 1 {
		t.Fatalf("anonymized %dx%d", anon.Len(), anon.Dim())
	}
	if len(report.Classes) != 1 || report.Classes[0].Label != -1 {
		t.Errorf("regression report %+v", report.Classes)
	}
	// The y ≈ 2x relationship must survive anonymization (joint
	// condensation of features and target preserves the correlation).
	var worst float64
	var bad int
	for i, x := range anon.X {
		err := anon.Targets[i] - 2*x[0]
		if err < 0 {
			err = -err
		}
		if err > worst {
			worst = err
		}
		if err > 2 {
			bad++
		}
	}
	if bad > 8 { // 10% tolerance
		t.Errorf("%d/80 anonymized points far from y=2x (worst |err| %.2f)", bad, worst)
	}
}

func TestAnonymizeErrors(t *testing.T) {
	empty := &dataset.Dataset{Task: dataset.Classification}
	if _, _, err := anonymize(empty, 2, rng.New(1)); err == nil {
		t.Error("empty data set accepted")
	}
	bad := toyClassification(10, 5)
	bad.Labels = bad.Labels[:3]
	if _, _, err := anonymize(bad, 2, rng.New(1)); err == nil {
		t.Error("invalid data set accepted")
	}
	badTask := toyClassification(11, 5)
	badTask.Task = dataset.Task(9)
	if _, _, err := anonymize(badTask, 2, rng.New(1)); err == nil {
		t.Error("unknown task accepted")
	}
}

func TestAnonymizeSmallClassSmallerThanK(t *testing.T) {
	ds := toyClassification(12, 3) // classes of 3 with k=5
	anon, report, err := anonymize(ds, 5, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if anon.Len() != 6 {
		t.Errorf("anonymized %d records, want 6", anon.Len())
	}
	for _, cr := range report.Classes {
		if cr.Groups != 1 {
			t.Errorf("class %d has %d groups, want 1 undersized group", cr.Label, cr.Groups)
		}
	}
}

func TestAnonymizeDeterministic(t *testing.T) {
	ds := toyClassification(14, 20)
	a1, _, err := anonymize(ds, 4, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := anonymize(ds, 4, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.X {
		if !a1.X[i].Equal(a2.X[i], 0) || a1.Labels[i] != a2.Labels[i] {
			t.Fatal("Anonymize is not deterministic for a fixed seed")
		}
	}
}

func TestReportEmptyAvg(t *testing.T) {
	var r Report
	if r.AvgGroupSize() != 0 {
		t.Error("empty report AvgGroupSize != 0")
	}
}
