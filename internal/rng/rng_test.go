package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs for different seeds", same)
	}
}

func TestZeroSeedIsNotDegenerate(t *testing.T) {
	r := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Errorf("seed 0 produced %d zero outputs in 100 draws", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", x)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ≈ 0.5", mean)
	}
}

func TestUniform(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		x := r.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform(-3,5) = %g", x)
		}
	}
}

func TestUniformInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted Uniform bounds did not panic")
		}
	}()
	New(1).Uniform(5, -3)
}

func TestIntNRangeAndCoverage(t *testing.T) {
	r := New(10)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		x := r.IntN(7)
		if x < 0 || x >= 7 {
			t.Fatalf("IntN(7) = %d", x)
		}
		seen[x] = true
	}
	if len(seen) != 7 {
		t.Errorf("IntN(7) covered only %d values in 1000 draws", len(seen))
	}
}

func TestIntNOne(t *testing.T) {
	r := New(11)
	for i := 0; i < 10; i++ {
		if x := r.IntN(1); x != 0 {
			t.Fatalf("IntN(1) = %d", x)
		}
	}
}

func TestIntNZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	New(1).IntN(0)
}

func TestIntNUniformity(t *testing.T) {
	r := New(12)
	const n, k = 60000, 6
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[r.IntN(k)]++
	}
	want := float64(n) / k
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %g", i, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %g, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %g, want ≈ 1", variance)
	}
}

func TestNormMeanStd(t *testing.T) {
	r := New(14)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormMeanStd(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("NormMeanStd mean = %g, want ≈ 10", mean)
	}
}

func TestNormMeanStdNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative std did not panic")
		}
	}()
	New(1).NormMeanStd(0, -1)
}

func TestExpMean(t *testing.T) {
	r := New(15)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp(2)
		if x < 0 {
			t.Fatalf("Exp produced negative %g", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %g, want ≈ 0.5", mean)
	}
}

func TestExpBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(20)
	child := parent.Split()
	// Child stream must not replicate the parent's subsequent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical outputs between parent and child", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a, b := New(21), New(21)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

// TestSplitValueMatchesSplit pins SplitValue to Split: the same child,
// the parent left in the same state (a cached Norm variate included), and
// no allocation.
func TestSplitValueMatchesSplit(t *testing.T) {
	a, b := New(23), New(23)
	a.Norm() // leave a spare variate cached on both parents
	b.Norm()
	for i := 0; i < 5; i++ {
		child := a.Split()
		if got := b.SplitValue(); got != *child {
			t.Fatalf("split %d: SplitValue child %+v, Split child %+v", i, got, *child)
		}
		if *a != *b {
			t.Fatalf("split %d: parent after SplitValue %+v, after Split %+v", i, *b, *a)
		}
	}
	if a.Norm() != b.Norm() || a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after the splits")
	}
	if n := testing.AllocsPerRun(100, func() { b.SplitValue() }); n != 0 {
		t.Fatalf("SplitValue allocates %v times per call", n)
	}
}

func TestPerm(t *testing.T) {
	r := New(22)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, x := range p {
		if x < 0 || x >= 10 || seen[x] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[x] = true
	}
}

func TestPermZero(t *testing.T) {
	if p := New(1).Perm(0); len(p) != 0 {
		t.Errorf("Perm(0) = %v", p)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		seen := make([]bool, len(xs))
		for _, x := range xs {
			if x < 0 || x >= len(xs) || seen[x] {
				return false
			}
			seen[x] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(23)
	const n = 100000
	var trues int
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %g", frac)
	}
}

func TestCategorical(t *testing.T) {
	r := New(24)
	const n = 90000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[r.Categorical([]float64{1, 2, 3})]++
	}
	wants := []float64{n / 6.0, n / 3.0, n / 2.0}
	for i, c := range counts {
		if math.Abs(float64(c)-wants[i]) > 6*math.Sqrt(wants[i]) {
			t.Errorf("Categorical bucket %d = %d, want ≈ %g", i, c, wants[i])
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	r := New(25)
	for i := 0; i < 1000; i++ {
		if got := r.Categorical([]float64{0, 1, 0}); got != 1 {
			t.Fatalf("Categorical chose zero-weight index %d", got)
		}
	}
}

func TestCategoricalAllZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("all-zero Categorical did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestCategoricalNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Categorical weight did not panic")
		}
	}()
	New(1).Categorical([]float64{1, -1})
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}
