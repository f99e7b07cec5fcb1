// Package stats implements the condensed-unit aggregate statistics at the
// heart of the condensation approach: for a group G of d-dimensional
// records it maintains
//
//	Fs_j(G)  — the first-order sums  Σ x_j          (one per attribute),
//	Sc_ij(G) — the second-order sums Σ x_i·x_j      (one per attribute pair),
//	n(G)     — the record count,
//
// exactly the triple (Sc(G), Fs(G), n(G)) the paper stores per group. The
// group mean and covariance follow from the paper's Observations 1 and 2:
//
//	mean_j = Fs_j/n
//	cov_ij = Sc_ij/n − Fs_i·Fs_j/n²
//
// The representation is additive: adding a record, merging two groups, and
// building a group from raw records are all exact integer-count sum
// updates, which is what makes the dynamic (streaming) maintenance of
// Section 3 of the paper possible without retaining any raw records.
//
// Sc is symmetric, so a group keeps only its upper triangle: one
// contiguous block of d + d(d+1)/2 values holding Fs and then Sc_ij for
// j ≥ i in row-major order — the order MarshalBinary writes. Keeping only
// one half is exact, not an approximation: x_i·x_j and x_j·x_i are the
// same IEEE product, accumulated in the same record order, so a full d×d
// Sc would hold the same bits in both halves.
package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"condensation/internal/mat"
)

// Group is the aggregate statistics of one condensed group. The zero value
// is unusable; construct with NewGroup or FromMoments.
type Group struct {
	dim int
	n   int
	// block is Fs (dim values), then the upper triangle of Sc in
	// row-major order: Sc_00 … Sc_0(d−1), Sc_11 … Sc_1(d−1), …, Sc_(d−1)(d−1).
	block []float64
}

// blockLen is the length of a group's moment block at dimension d.
func blockLen(d int) int { return d + d*(d+1)/2 }

// NewGroup returns an empty group over d-dimensional records.
func NewGroup(d int) *Group {
	if d <= 0 {
		panic(fmt.Sprintf("stats: non-positive dimension %d", d))
	}
	return &Group{dim: d, block: make([]float64, blockLen(d))}
}

// FromRecords builds a group from raw records.
func FromRecords(records []mat.Vector) (*Group, error) {
	if len(records) == 0 {
		return nil, errors.New("stats: FromRecords with no records")
	}
	g := NewGroup(len(records[0]))
	for i, x := range records {
		if err := g.Add(x); err != nil {
			return nil, fmt.Errorf("stats: record %d: %w", i, err)
		}
	}
	return g, nil
}

// FromMoments builds a group directly from a count, first-order sums, and
// second-order sums. The split procedure of the dynamic algorithm uses this
// to materialize the two child groups from derived moments (Equation 3 of
// the paper). The inputs are copied; sc is symmetrized as
// mat.Matrix.Symmetrize does, (sc + scᵀ)/2, before its upper triangle is
// kept.
func FromMoments(n int, fs mat.Vector, sc *mat.Matrix) (*Group, error) {
	d := len(fs)
	if d == 0 {
		return nil, errors.New("stats: FromMoments with empty first-order sums")
	}
	if n <= 0 {
		return nil, fmt.Errorf("stats: FromMoments with non-positive count %d", n)
	}
	if sc.Rows() != d || sc.Cols() != d {
		return nil, fmt.Errorf("stats: FromMoments shape mismatch: fs %d, sc %dx%d", d, sc.Rows(), sc.Cols())
	}
	if !fs.IsFinite() || !sc.IsFinite() {
		return nil, errors.New("stats: FromMoments with non-finite moments")
	}
	g := &Group{dim: d, n: n, block: make([]float64, blockLen(d))}
	copy(g.block, fs)
	tri := g.block[d:]
	for i := 0; i < d; i++ {
		row := sc.Row(i)
		tri[0] = row[i]
		for j := i + 1; j < d; j++ {
			tri[j-i] = (row[j] + sc.At(j, i)) / 2
		}
		tri = tri[d-i:]
	}
	return g, nil
}

// Dim returns the attribute dimensionality d.
func (g *Group) Dim() int { return g.dim }

// N returns n(G), the number of condensed records.
func (g *Group) N() int { return g.n }

// fs returns Fs(G), aliasing the block.
func (g *Group) fs() mat.Vector { return g.block[:g.dim] }

// Add folds one record into the group: Fs += x, Sc += x·xᵀ, n += 1.
func (g *Group) Add(x mat.Vector) error {
	if len(x) != g.dim {
		return fmt.Errorf("stats: record dimension %d, group dimension %d", len(x), g.dim)
	}
	if !x.IsFinite() {
		return errors.New("stats: record has non-finite values")
	}
	fs, tri := g.block[:len(x)], g.block[len(x):]
	for i, xi := range x {
		fs[i] += xi
		tail := x[i:]
		row := tri[:len(tail)]
		for j, xj := range tail {
			row[j] += xi * xj
		}
		tri = tri[len(tail):]
	}
	g.n++
	return nil
}

// Merge folds the other group's statistics into g. Merging is exact: the
// result is identical to having added all underlying records to g.
func (g *Group) Merge(other *Group) error {
	if other.dim != g.dim {
		return fmt.Errorf("stats: merge dimension mismatch %d != %d", other.dim, g.dim)
	}
	ob := other.block[:len(g.block)]
	for i := range g.block {
		g.block[i] += ob[i]
	}
	g.n += other.n
	return nil
}

// Clone returns an independent deep copy of g.
func (g *Group) Clone() *Group {
	block := make([]float64, len(g.block))
	copy(block, g.block)
	return &Group{dim: g.dim, n: g.n, block: block}
}

// FirstOrderSums returns a copy of Fs(G).
func (g *Group) FirstOrderSums() mat.Vector { return g.fs().Clone() }

// SecondOrderSums returns a copy of Sc(G) as a full symmetric matrix.
func (g *Group) SecondOrderSums() *mat.Matrix {
	d := g.dim
	sc := mat.New(d, d)
	tri := g.block[d:]
	for i := 0; i < d; i++ {
		for j, v := range tri[:d-i] {
			sc.Set(i, i+j, v)
			sc.Set(i+j, i, v)
		}
		tri = tri[d-i:]
	}
	return sc
}

// Mean returns the group centroid Y(G) = Fs(G)/n(G) (Observation 1 /
// Equation 2 of the paper). It returns an error on an empty group.
func (g *Group) Mean() (mat.Vector, error) {
	if g.n == 0 {
		return nil, errors.New("stats: mean of empty group")
	}
	return g.fs().Scale(1 / float64(g.n)), nil
}

// MeanInto writes the group centroid into dst without allocating. It is
// the streaming hot path's update primitive: the dynamic engine folds a
// record into a group and writes its new centroid into a scratch vector
// that the centroid index copies, so steady-state ingestion performs no
// per-record allocation. The computed values are bit-identical to Mean()
// — both scale Fs by the same reciprocal — so indexed and
// freshly-allocated centroids never diverge.
func (g *Group) MeanInto(dst mat.Vector) error {
	if len(dst) != g.dim {
		return fmt.Errorf("stats: destination dimension %d, group dimension %d", len(dst), g.dim)
	}
	if g.n == 0 {
		return errors.New("stats: mean of empty group")
	}
	inv := 1 / float64(g.n)
	for i, f := range g.fs() {
		dst[i] = inv * f
	}
	return nil
}

// Covariance returns the population covariance matrix C(G) with entries
// C_ij = Sc_ij/n − Fs_i·Fs_j/n² (Observation 2 of the paper). The matrix is
// exactly symmetric; tiny negative diagonal entries arising from floating-
// point cancellation are floored at zero.
func (g *Group) Covariance() (*mat.Matrix, error) {
	if g.n == 0 {
		return nil, errors.New("stats: covariance of empty group")
	}
	n := float64(g.n)
	d := g.dim
	fs, tri := g.fs(), g.block[d:]
	c := mat.New(d, d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			v := tri[j-i]/n - fs[i]*fs[j]/(n*n)
			if i == j && v < 0 {
				v = 0
			}
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
		tri = tri[d-i:]
	}
	return c, nil
}

// Variance returns the population variance of attribute j.
func (g *Group) Variance(j int) (float64, error) {
	if j < 0 || j >= g.dim {
		return 0, fmt.Errorf("stats: attribute %d out of range [0,%d)", j, g.dim)
	}
	if g.n == 0 {
		return 0, errors.New("stats: variance of empty group")
	}
	n := float64(g.n)
	d := g.dim
	// Row j of the triangle starts after rows 0..j−1, of d, d−1, …, d−j+1
	// entries; Sc_jj is its first entry.
	sjj := g.block[d+j*d-j*(j-1)/2]
	fj := g.block[j]
	v := sjj/n - fj*fj/(n*n)
	if v < 0 {
		v = 0
	}
	return v, nil
}

// Eigen returns the eigendecomposition C(G) = P Λ Pᵀ of the group
// covariance (Equation 1 of the paper), with eigenvalues clamped to be
// non-negative, ordered λ₁ ≥ … ≥ λ_d.
func (g *Group) Eigen() (mat.Eigen, error) {
	return g.EigenWith(nil)
}

// EigenWith is Eigen drawing the eigensolver's working storage from s (nil
// allocates locally) — bit-identical results, amortized workspaces for
// callers that decompose many groups, such as the dynamic split path.
func (g *Group) EigenWith(s *mat.EigenScratch) (mat.Eigen, error) {
	c, err := g.Covariance()
	if err != nil {
		return mat.Eigen{}, err
	}
	e, err := mat.SymEigenWith(c, s)
	if err != nil {
		return mat.Eigen{}, err
	}
	return e.ClampPSD(), nil
}

// groupMagic identifies the binary encoding of a Group.
const groupMagic = 0x434e4447 // "CNDG"

// MarshalBinary encodes the group as a portable little-endian byte stream:
// magic, dim, n, Fs, then the upper triangle of Sc — the moment block as
// it is held.
func (g *Group) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+8+8+8*len(g.block))
	buf = binary.LittleEndian.AppendUint32(buf, groupMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.n))
	for _, x := range g.block {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf, nil
}

// UnmarshalBinary decodes a byte stream produced by MarshalBinary.
func (g *Group) UnmarshalBinary(data []byte) error {
	if len(data) < 20 {
		return errors.New("stats: truncated group encoding")
	}
	if binary.LittleEndian.Uint32(data[:4]) != groupMagic {
		return errors.New("stats: bad group encoding magic")
	}
	dim := int(binary.LittleEndian.Uint64(data[4:12]))
	n := int(binary.LittleEndian.Uint64(data[12:20]))
	if dim <= 0 || dim > 1<<20 {
		return fmt.Errorf("stats: implausible dimension %d in encoding", dim)
	}
	want := 20 + 8*blockLen(dim)
	if len(data) != want {
		return fmt.Errorf("stats: group encoding length %d, want %d", len(data), want)
	}
	// Enforce FromMoments' invariants: decoded bytes are untrusted, and a
	// non-positive count or a non-finite moment would only fail (or panic)
	// later, at synthesis.
	if n <= 0 {
		return fmt.Errorf("stats: non-positive count %d in encoding", n)
	}
	block := make([]float64, blockLen(dim))
	for i := range block {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[20+8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("stats: non-finite moments in encoding")
		}
		block[i] = v
	}
	g.dim, g.n, g.block = dim, n, block
	return nil
}

// String summarizes the group for logs and debugging.
func (g *Group) String() string {
	mean := "∅"
	if g.n > 0 {
		m, _ := g.Mean()
		mean = fmt.Sprintf("%.4g", []float64(m))
	}
	return fmt.Sprintf("Group{d=%d n=%d mean=%s}", g.dim, g.n, mean)
}
