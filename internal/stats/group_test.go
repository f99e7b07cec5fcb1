package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

func records2D() []mat.Vector {
	return []mat.Vector{
		{1, 2}, {3, 4}, {5, 0}, {-1, 2}, {2, 2},
	}
}

func TestNewGroupBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup(0) did not panic")
		}
	}()
	NewGroup(0)
}

func TestGroupAddAndMean(t *testing.T) {
	g := NewGroup(2)
	for _, x := range records2D() {
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
	mean, err := g.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if !mean.Equal(mat.Vector{2, 2}, 1e-12) {
		t.Errorf("Mean = %v, want [2 2]", mean)
	}
}

func TestGroupAddDimensionMismatch(t *testing.T) {
	g := NewGroup(2)
	if err := g.Add(mat.Vector{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestGroupAddNonFinite(t *testing.T) {
	g := NewGroup(2)
	if err := g.Add(mat.Vector{1, math.NaN()}); err == nil {
		t.Error("NaN record accepted")
	}
	if g.N() != 0 {
		t.Error("failed Add mutated the group")
	}
}

func TestGroupEmptyMeanCovariance(t *testing.T) {
	g := NewGroup(2)
	if _, err := g.Mean(); err == nil {
		t.Error("mean of empty group accepted")
	}
	if _, err := g.Covariance(); err == nil {
		t.Error("covariance of empty group accepted")
	}
	if _, err := g.Variance(0); err == nil {
		t.Error("variance of empty group accepted")
	}
}

// The paper's Observation 2 formula must agree with the numerically stable
// centred covariance.
func TestGroupCovarianceMatchesCentered(t *testing.T) {
	recs := records2D()
	g, err := FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	want, err := CovarianceMatrix(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-10) {
		t.Errorf("sum-form covariance:\n%v\ncentred covariance:\n%v", got, want)
	}
}

func TestGroupCovarianceSingleRecord(t *testing.T) {
	g, err := FromRecords([]mat.Vector{{3, -1}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(mat.New(2, 2), 1e-12) {
		t.Errorf("covariance of single record = %v, want zero", c)
	}
}

// Large-mean regime: the sum-of-products form suffers cancellation; verify
// the implementation floors negative variances instead of returning them.
func TestGroupCovarianceLargeMeanCancellation(t *testing.T) {
	g := NewGroup(1)
	base := 1e9
	for i := 0; i < 100; i++ {
		if err := g.Add(mat.Vector{base + float64(i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := g.Variance(0)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 {
		t.Errorf("variance %g < 0 under cancellation", v)
	}
	c, err := g.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) < 0 {
		t.Errorf("covariance diagonal %g < 0 under cancellation", c.At(0, 0))
	}
}

func TestGroupMergeEqualsBulk(t *testing.T) {
	recs := records2D()
	g1, _ := FromRecords(recs[:2])
	g2, _ := FromRecords(recs[2:])
	if err := g1.Merge(g2); err != nil {
		t.Fatal(err)
	}
	bulk, _ := FromRecords(recs)
	if g1.N() != bulk.N() {
		t.Fatalf("merged N = %d, want %d", g1.N(), bulk.N())
	}
	if !g1.FirstOrderSums().Equal(bulk.FirstOrderSums(), 1e-12) {
		t.Error("merged Fs differs from bulk Fs")
	}
	if !g1.SecondOrderSums().Equal(bulk.SecondOrderSums(), 1e-12) {
		t.Error("merged Sc differs from bulk Sc")
	}
}

func TestGroupMergeDimensionMismatch(t *testing.T) {
	if err := NewGroup(2).Merge(NewGroup(3)); err == nil {
		t.Error("merge of mismatched dims accepted")
	}
}

func TestGroupCloneIndependent(t *testing.T) {
	g, _ := FromRecords(records2D())
	c := g.Clone()
	if err := c.Add(mat.Vector{100, 100}); err != nil {
		t.Fatal(err)
	}
	if g.N() == c.N() {
		t.Error("Clone shares state with original")
	}
}

func TestFromRecordsEmpty(t *testing.T) {
	if _, err := FromRecords(nil); err == nil {
		t.Error("FromRecords(nil) accepted")
	}
}

func TestFromMomentsValidation(t *testing.T) {
	fs := mat.Vector{1, 2}
	sc := mat.New(2, 2)
	if _, err := FromMoments(0, fs, sc); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := FromMoments(1, mat.Vector{}, mat.New(0, 0)); err == nil {
		t.Error("empty moments accepted")
	}
	if _, err := FromMoments(1, fs, mat.New(3, 3)); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad := mat.New(2, 2)
	bad.Set(0, 0, math.Inf(1))
	if _, err := FromMoments(1, fs, bad); err == nil {
		t.Error("non-finite moments accepted")
	}
	g, err := FromMoments(3, fs, sc)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.Dim() != 2 {
		t.Errorf("FromMoments N=%d Dim=%d", g.N(), g.Dim())
	}
}

func TestFromMomentsCopiesInputs(t *testing.T) {
	fs := mat.Vector{1, 2}
	sc := mat.New(2, 2)
	g, err := FromMoments(1, fs, sc)
	if err != nil {
		t.Fatal(err)
	}
	fs[0] = 99
	sc.Set(0, 0, 99)
	if g.FirstOrderSums()[0] == 99 || g.SecondOrderSums().At(0, 0) == 99 {
		t.Error("FromMoments aliases caller data")
	}
}

func TestGroupEigenPSD(t *testing.T) {
	g, _ := FromRecords(records2D())
	e, err := g.Eigen()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range e.Values {
		if v < 0 {
			t.Errorf("clamped eigenvalue λ[%d] = %g < 0", i, v)
		}
	}
	c, _ := g.Covariance()
	if math.Abs(e.Values.Sum()-c.Trace()) > 1e-9*(1+c.Trace()) {
		t.Errorf("eigen sum %g != trace %g", e.Values.Sum(), c.Trace())
	}
}

func TestGroupBinaryRoundTrip(t *testing.T) {
	g, _ := FromRecords(records2D())
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var h Group
	if err := h.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.Dim() != g.Dim() {
		t.Fatalf("round trip N=%d Dim=%d, want N=%d Dim=%d", h.N(), h.Dim(), g.N(), g.Dim())
	}
	if !h.FirstOrderSums().Equal(g.FirstOrderSums(), 0) {
		t.Error("Fs not preserved")
	}
	if !h.SecondOrderSums().Equal(g.SecondOrderSums(), 0) {
		t.Error("Sc not preserved")
	}
}

func TestGroupUnmarshalRejectsGarbage(t *testing.T) {
	var g Group
	if err := g.UnmarshalBinary(nil); err == nil {
		t.Error("nil accepted")
	}
	if err := g.UnmarshalBinary(make([]byte, 40)); err == nil {
		t.Error("bad magic accepted")
	}
	good, _ := FromRecords(records2D())
	data, _ := good.MarshalBinary()
	if err := g.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Error("truncated encoding accepted")
	}
}

func TestGroupString(t *testing.T) {
	g := NewGroup(2)
	if s := g.String(); s == "" {
		t.Error("empty String()")
	}
	_ = g.Add(mat.Vector{1, 1})
	if s := g.String(); s == "" {
		t.Error("empty String() for nonempty group")
	}
}

// Property: Add order does not change the statistics (addition is
// commutative up to floating-point round-off).
func TestGroupAddOrderInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.IntN(20)
		recs := make([]mat.Vector, n)
		for i := range recs {
			recs[i] = mat.Vector{r.Uniform(-5, 5), r.Uniform(-5, 5), r.Uniform(-5, 5)}
		}
		g1, err := FromRecords(recs)
		if err != nil {
			return false
		}
		perm := r.Perm(n)
		g2 := NewGroup(3)
		for _, idx := range perm {
			if err := g2.Add(recs[idx]); err != nil {
				return false
			}
		}
		return g1.FirstOrderSums().Equal(g2.FirstOrderSums(), 1e-9) &&
			g1.SecondOrderSums().Equal(g2.SecondOrderSums(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the covariance from group moments is PSD after eigen clamping
// and symmetric by construction.
func TestGroupCovarianceSymmetricProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(30)
		g := NewGroup(4)
		for i := 0; i < n; i++ {
			x := mat.Vector{r.Norm(), r.Norm() * 3, r.Uniform(-1, 1), r.Norm() + 5}
			if err := g.Add(x); err != nil {
				return false
			}
		}
		c, err := g.Covariance()
		if err != nil {
			return false
		}
		return c.IsSymmetric(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MeanInto is bit-identical to Mean for arbitrary groups, so the
// centroids the dynamic engine's router holds can never diverge from
// freshly-computed ones.
func TestGroupMeanIntoMatchesMean(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := 1 + r.IntN(6)
		n := 1 + r.IntN(40)
		g := NewGroup(d)
		for i := 0; i < n; i++ {
			x := make(mat.Vector, d)
			for j := range x {
				x[j] = r.Uniform(-1e6, 1e6)
			}
			if err := g.Add(x); err != nil {
				return false
			}
		}
		want, err := g.Mean()
		if err != nil {
			return false
		}
		got := make(mat.Vector, d)
		if err := g.MeanInto(got); err != nil {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGroupMeanIntoErrors(t *testing.T) {
	g := NewGroup(3)
	if err := g.MeanInto(make(mat.Vector, 2)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := g.MeanInto(make(mat.Vector, 3)); err == nil {
		t.Error("empty group accepted")
	}
}

// fullMoments is the test's reference for a group: n, Fs and the full
// d×d Sc, accumulated with plain loops over every (i, j) pair, the layout
// the packed block replaces.
type fullMoments struct {
	n  int
	fs []float64
	sc [][]float64
}

func newFullMoments(d int) *fullMoments {
	m := &fullMoments{fs: make([]float64, d), sc: make([][]float64, d)}
	for i := range m.sc {
		m.sc[i] = make([]float64, d)
	}
	return m
}

func (m *fullMoments) add(x []float64) {
	for i, xi := range x {
		m.fs[i] += xi
		for j, xj := range x {
			m.sc[i][j] += xi * xj
		}
	}
	m.n++
}

func (m *fullMoments) merge(o *fullMoments) {
	for i := range m.fs {
		m.fs[i] += o.fs[i]
		for j := range m.sc[i] {
			m.sc[i][j] += o.sc[i][j]
		}
	}
	m.n += o.n
}

// marshal encodes the reference in MarshalBinary's format: magic, dim, n,
// Fs, then Sc_ij for j ≥ i row by row.
func (m *fullMoments) marshal() []byte {
	d := len(m.fs)
	buf := binary.LittleEndian.AppendUint32(nil, groupMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.n))
	for _, v := range m.fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.sc[i][j]))
		}
	}
	return buf
}

// checkAgainst requires every read of g to be bit-identical to the
// reference: Sc expanded to the full matrix, the covariance of
// Observation 2 with its diagonal floored at zero, each variance, and the
// encoding.
func checkAgainst(t *testing.T, label string, g *Group, m *fullMoments) {
	t.Helper()
	d := len(m.fs)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if g.N() != m.n || g.Dim() != d {
		t.Fatalf("%s: n=%d dim=%d, want n=%d dim=%d", label, g.N(), g.Dim(), m.n, d)
	}
	fs := g.FirstOrderSums()
	sc := g.SecondOrderSums()
	cov, err := g.Covariance()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n := float64(m.n)
	for i := 0; i < d; i++ {
		if !same(fs[i], m.fs[i]) {
			t.Fatalf("%s: Fs[%d] = %v, want %v", label, i, fs[i], m.fs[i])
		}
		for j := 0; j < d; j++ {
			if !same(sc.At(i, j), m.sc[i][j]) {
				t.Fatalf("%s: Sc[%d][%d] = %v, want %v", label, i, j, sc.At(i, j), m.sc[i][j])
			}
			want := m.sc[i][j]/n - m.fs[i]*m.fs[j]/(n*n)
			if i == j && want < 0 {
				want = 0
			}
			if !same(cov.At(i, j), want) {
				t.Fatalf("%s: C[%d][%d] = %v, want %v", label, i, j, cov.At(i, j), want)
			}
		}
		v, err := g.Variance(i)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !same(v, cov.At(i, i)) {
			t.Fatalf("%s: Variance(%d) = %v, want %v", label, i, v, cov.At(i, i))
		}
	}
	got, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(got, m.marshal()) {
		t.Fatalf("%s: MarshalBinary differs from the reference encoding", label)
	}
}

// TestPackedMomentsMatchFullReference checks the packed moment block
// against a full d×d reference on every path that writes it: Add, Merge,
// FromMoments over an asymmetric input, and decoding.
func TestPackedMomentsMatchFullReference(t *testing.T) {
	for _, d := range []int{1, 2, 8, 34} {
		r := rng.New(uint64(100 + d))
		record := func() mat.Vector {
			x := make(mat.Vector, d)
			for i := range x {
				x[i] = r.NormMeanStd(3, 10)
			}
			return x
		}

		// Add, then Merge of two Add-built halves.
		a, b := NewGroup(d), NewGroup(d)
		refA, refB := newFullMoments(d), newFullMoments(d)
		for i := 0; i < 40; i++ {
			x := record()
			g, ref := a, refA
			if i%3 == 0 {
				g, ref = b, refB
			}
			if err := g.Add(x); err != nil {
				t.Fatal(err)
			}
			ref.add(x)
		}
		checkAgainst(t, fmt.Sprintf("d=%d add", d), a, refA)
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		refA.merge(refB)
		checkAgainst(t, fmt.Sprintf("d=%d merge", d), a, refA)

		// FromMoments keeps (Sc + Scᵀ)/2 of an asymmetric input.
		fs := record()
		sc := mat.New(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				sc.Set(i, j, r.NormMeanStd(0, 50))
			}
		}
		refM := newFullMoments(d)
		refM.n = 7
		copy(refM.fs, fs)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				refM.sc[i][j] = sc.At(i, j)
				if i != j {
					refM.sc[i][j] = (sc.At(i, j) + sc.At(j, i)) / 2
				}
			}
		}
		m, err := FromMoments(7, fs, sc)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, fmt.Sprintf("d=%d from moments", d), m, refM)

		// Decoding the reference encoding.
		var u Group
		if err := u.UnmarshalBinary(refA.marshal()); err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, fmt.Sprintf("d=%d unmarshal", d), &u, refA)
	}
}

var groupSink *Group

// TestGroupAllocations pins NewGroup and Clone at two allocations each:
// the Group and its moment block.
func TestGroupAllocations(t *testing.T) {
	for _, d := range []int{1, 8, 34} {
		if n := testing.AllocsPerRun(100, func() { groupSink = NewGroup(d) }); n != 2 {
			t.Errorf("d=%d: NewGroup makes %v allocations, want 2", d, n)
		}
		g := NewGroup(d)
		if n := testing.AllocsPerRun(100, func() { groupSink = g.Clone() }); n != 2 {
			t.Errorf("d=%d: Clone makes %v allocations, want 2", d, n)
		}
	}
}

// BenchmarkGroupAdd folds one record per op into a group. The dim-8 cells
// hold one group (in cache) or 50k groups visited in a shuffled order, so
// most adds miss cache the way the dynamic engine's do at G≈50k.
func BenchmarkGroupAdd(b *testing.B) {
	for _, c := range []struct{ dim, groups int }{{8, 1}, {8, 50000}, {34, 1}} {
		b.Run(fmt.Sprintf("d=%d/groups=%d", c.dim, c.groups), func(b *testing.B) {
			gs := make([]*Group, c.groups)
			for i := range gs {
				gs[i] = NewGroup(c.dim)
			}
			order := rng.New(1).Perm(c.groups)
			x := make(mat.Vector, c.dim)
			for i := range x {
				x[i] = float64(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gs[order[i%c.groups]].Add(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
