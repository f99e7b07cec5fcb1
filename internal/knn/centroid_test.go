package knn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

// scanNearestLex is the reference the index must match exactly: a linear
// scan in id order keeping the strictly-smaller distance, whose winner is
// the lexicographic (distance, id) minimum.
func scanNearestLex(points []mat.Vector, q mat.Vector) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range points {
		if d := q.DistSq(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// flatten copies points into a flat id-order arena, the form
// NewCentroidIndex takes.
func flatten(points []mat.Vector) []float64 {
	var flat []float64
	for _, p := range points {
		flat = append(flat, p...)
	}
	return flat
}

// Property: under arbitrary interleavings of Add, Update, and Nearest the
// index answers every query exactly as the id-order linear scan does,
// including distance ties (coordinates are drawn from a small integer grid
// so exact ties are common). Half the runs start from hundreds of points at
// dims 1–8, building trees at least three levels deep, so ties are broken
// across pruned subtrees. A quarter start from no points, as a pure-stream
// shard's index does, and a quarter from 1 to 60, where below 16 points no
// tree exists until appends trigger the first build. The updates mix
// one-step moves, moves anywhere on the grid (most leave their leaf's box,
// and many its parent's) and split-sized jumps off the grid, and every box
// must keep bounding its subtree after each one.
func TestCentroidIndexMatchesScan(t *testing.T) {
	climbs := 0 // in-tree moves that left both their leaf's and its parent's box
	f := func(seed uint64) bool {
		r := rng.New(seed)
		dim := 1 + r.IntN(8)
		n := 300 + r.IntN(400)
		switch r.IntN(4) {
		case 0:
			n = 0 // a pure-stream shard's index starts with no points
		case 1:
			n = 1 + r.IntN(60)
		}
		mirror := make([]mat.Vector, 0, n)
		grid := func() mat.Vector {
			x := make(mat.Vector, dim)
			for j := range x {
				x[j] = float64(r.IntN(5)) // small grid → frequent exact ties
			}
			return x
		}
		for i := 0; i < n; i++ {
			mirror = append(mirror, grid())
		}
		idx, err := NewCentroidIndex(dim, flatten(mirror))
		if err != nil {
			return false
		}
		if n >= 300 {
			if depth := idx.depth(idx.root); depth < 3 {
				t.Logf("seed %d: %d points built a tree of depth %d, want ≥ 3", seed, n, depth)
				return false
			}
		}
		for step := 0; step < 1500; step++ {
			switch r.IntN(4) {
			case 0: // add
				p := grid()
				mirror = append(mirror, p.Clone())
				id, err := idx.Add(p)
				if err != nil || id != len(mirror)-1 {
					return false
				}
			case 1, 2: // update
				if len(mirror) == 0 {
					continue // nothing to move yet
				}
				id := r.IntN(len(mirror))
				p := mirror[id].Clone()
				switch r.IntN(3) {
				case 0: // one grid step along one axis
					p[r.IntN(dim)] += float64(r.IntN(3) - 1)
				case 1: // anywhere on the grid
					p = grid()
				default: // a split-sized jump off the grid
					for j := range p {
						p[j] = float64(r.IntN(13) - 4)
					}
				}
				if id < len(idx.perm) {
					leaf := int(idx.leaf[idx.slot[id]])
					if !idx.boxHolds(leaf, p) && !idx.boxHolds(idx.nodes[leaf].parent, p) {
						climbs++
					}
				}
				copy(mirror[id], p)
				if len(p) != dim {
					return false
				}
				if err := idx.Update(id, p); err != nil {
					return false
				}
				if err := idx.checkBoxes(); err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
			default: // query, on and just off the grid
				q := grid()
				q[r.IntN(dim)] += float64(r.IntN(3)-1) * 0.5
				wantID, wantD := scanNearestLex(mirror, q)
				gotID, gotD := idx.Nearest(q)
				if gotID != wantID || gotD != wantD {
					return false
				}
			}
		}
		for id, p := range mirror {
			if idx.Point(id).DistSq(p) != 0 {
				return false
			}
		}
		return idx.Len() == len(mirror)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if climbs == 0 {
		t.Error("no update left both its leaf's and its parent's box: growing never climbed past a leaf")
	}
}

// depth returns the number of edges on the longest root-to-leaf path
// below arena node ni.
func (c *CentroidIndex) depth(ni int) int {
	nd := c.nodes[ni]
	if nd.left < 0 {
		return 0
	}
	return 1 + max(c.depth(nd.left), c.depth(nd.right))
}

// boxHolds reports whether node ni's box contains p (false for ni = -1).
func (c *CentroidIndex) boxHolds(ni int, p mat.Vector) bool {
	if ni < 0 {
		return false
	}
	box := c.boxes[ni*2*c.dim : (ni+1)*2*c.dim]
	for j, v := range p {
		if v < box[j] || v > box[c.dim+j] {
			return false
		}
	}
	return true
}

// checkBoxes verifies the invariant exact pruning rests on: every leaf
// slot holds its point's current coordinates, every leaf box contains its
// slots, and every internal box contains both children's boxes.
func (c *CentroidIndex) checkBoxes() error {
	for ni, nd := range c.nodes {
		box := c.boxes[ni*2*c.dim : (ni+1)*2*c.dim]
		if nd.left >= 0 {
			for _, ch := range []int{nd.left, nd.right} {
				if c.nodes[ch].parent != ni {
					return fmt.Errorf("node %d: child %d has parent %d", ni, ch, c.nodes[ch].parent)
				}
				cb := c.boxes[ch*2*c.dim : (ch+1)*2*c.dim]
				for j := 0; j < c.dim; j++ {
					if cb[j] < box[j] || cb[c.dim+j] > box[c.dim+j] {
						return fmt.Errorf("node %d: box does not contain child %d's on axis %d", ni, ch, j)
					}
				}
			}
			continue
		}
		for i := nd.lo; i < nd.hi; i++ {
			id := c.perm[i]
			row := mat.Vector(c.flat[i*c.dim : (i+1)*c.dim])
			if int(c.leaf[i]) != ni || c.slot[id] != i {
				return fmt.Errorf("leaf %d: slot %d (id %d) filed under leaf %d, slot %d", ni, i, id, c.leaf[i], c.slot[id])
			}
			if row.DistSq(c.Point(id)) != 0 {
				return fmt.Errorf("leaf %d: id %d has stale coordinates", ni, id)
			}
			if !c.boxHolds(ni, row) {
				return fmt.Errorf("leaf %d: box does not contain id %d", ni, id)
			}
		}
	}
	return nil
}

// TestBoxDistMatchesBranches: the branch-free box distance is
// bit-identical to adding only the positive side of each face, for
// queries inside, outside and on the faces of dyadic and random boxes,
// with ties to the box faces and zero-width boxes included.
func TestBoxDistMatchesBranches(t *testing.T) {
	r := rng.New(9)
	const dim = 8
	c := &CentroidIndex{dim: dim, boxes: make([]float64, 2*dim)}
	lo, hi := c.boxes[:dim], c.boxes[dim:]
	q := make(mat.Vector, dim)
	for trial := 0; trial < 2000; trial++ {
		pick := func() float64 {
			if trial%2 == 0 {
				return float64(r.IntN(5)) / 2
			}
			return r.Norm() * 3
		}
		for j := range q {
			a, b := pick(), pick()
			lo[j], hi[j] = min(a, b), max(a, b)
			if q[j] = pick(); r.IntN(4) == 0 {
				q[j] = lo[j]
			}
		}
		var want float64
		for j, v := range q {
			if v < lo[j] {
				d := lo[j] - v
				want += d * d
			} else if v > hi[j] {
				d := v - hi[j]
				want += d * d
			}
		}
		if got := c.boxDist(0, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: boxDist = %v, want %v (lo %v hi %v q %v)", trial, got, want, lo, hi, q)
		}
	}
}

func TestCentroidIndexEmpty(t *testing.T) {
	idx, err := NewCentroidIndex(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := idx.Nearest(mat.Vector{0, 0}); id != -1 {
		t.Errorf("Nearest on empty index = %d, want -1", id)
	}
	if _, err := idx.Add(mat.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	if id, d := idx.Nearest(mat.Vector{1, 2}); id != 0 || d != 0 {
		t.Errorf("Nearest = (%d, %g), want (0, 0)", id, d)
	}
}

func TestCentroidIndexErrors(t *testing.T) {
	if _, err := NewCentroidIndex(0, nil); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := NewCentroidIndex(2, []float64{1, 2, 3}); err == nil {
		t.Error("arena of partial rows accepted")
	}
	idx, err := NewCentroidIndex(2, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Add(mat.Vector{1}); err == nil {
		t.Error("wrong-dimension Add accepted")
	}
	if err := idx.Update(0, mat.Vector{1}); err == nil {
		t.Error("wrong-dimension Update accepted")
	}
	if err := idx.Update(5, mat.Vector{1, 2}); err == nil {
		t.Error("out-of-range Update accepted")
	}
	if err := idx.Update(-1, mat.Vector{1, 2}); err == nil {
		t.Error("negative Update accepted")
	}
}

// Add and Update copy their points into the index: mutating the vectors
// passed to them afterwards must not change answers or Point.
func TestCentroidIndexCopiesInputs(t *testing.T) {
	idx, err := NewCentroidIndex(2, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	q := mat.Vector{5, 5}
	if _, err := idx.Add(q); err != nil {
		t.Fatal(err)
	}
	q[0] = -100
	if id, d := idx.Nearest(mat.Vector{5, 5}); id != 1 || d != 0 {
		t.Errorf("Add aliased caller storage: (%d, %g)", id, d)
	}
	u := mat.Vector{2, 3}
	if err := idx.Update(0, u); err != nil {
		t.Fatal(err)
	}
	u[0] = -100
	if p := idx.Point(0); p[0] != 2 || p[1] != 3 {
		t.Errorf("Update aliased caller storage: Point(0) = %v", p)
	}
	if p := idx.Point(1); p[0] != 5 || p[1] != 5 {
		t.Errorf("Point(1) = %v, want [5 5]", p)
	}
}

// After enough updates to trigger threshold rebuilds, answers stay exact.
func TestCentroidIndexRebuild(t *testing.T) {
	r := rng.New(11)
	dim := 3
	mirror := make([]mat.Vector, 0, 400)
	for i := 0; i < 400; i++ {
		x := make(mat.Vector, dim)
		for j := range x {
			x[j] = r.Norm() * 10
		}
		mirror = append(mirror, x)
	}
	idx, err := NewCentroidIndex(dim, flatten(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if idx.root < 0 {
		t.Fatal("large initial set did not build a tree")
	}
	for step := 0; step < 2000; step++ {
		id := r.IntN(len(mirror))
		p := mat.Vector{r.Norm() * 10, r.Norm() * 10, r.Norm() * 10}
		copy(mirror[id], p)
		if err := idx.Update(id, p); err != nil {
			t.Fatal(err)
		}
		if step%50 == 0 {
			q := mat.Vector{r.Norm() * 10, r.Norm() * 10, r.Norm() * 10}
			wantID, wantD := scanNearestLex(mirror, q)
			gotID, gotD := idx.Nearest(q)
			if gotID != wantID || gotD != wantD {
				t.Fatalf("step %d: Nearest = (%d, %g), want (%d, %g)", step, gotID, gotD, wantID, wantD)
			}
		}
	}
	if len(idx.dirty) >= len(mirror) {
		t.Error("dirty list never compacted by rebuilds")
	}
}

// corrStream draws n records of a rank-3 correlated dim-8 stream,
// x = Az + 0.1ε with z ∈ R³: records lie near a 3-dimensional subspace,
// the regime of the dynamic engine's ingest benchmarks.
func corrStream(r *rng.Source, a []float64, n int) []mat.Vector {
	const dim, intrinsic = 8, 3
	out := make([]mat.Vector, n)
	for i := range out {
		var z [intrinsic]float64
		for j := range z {
			z[j] = r.Norm()
		}
		x := make(mat.Vector, dim)
		for j := range x {
			s := 0.1 * r.Norm()
			for l, zv := range z {
				s += a[j*intrinsic+l] * zv
			}
			x[j] = s
		}
		out[i] = x
	}
	return out
}

// driftedIndex builds g centroids from a correlated stream, each standing
// for a group of 25 records, then routes `routed` further records through
// Nearest and moves each winner to its group's new mean with Update, as
// the dynamic engine does between splits. routed stays below the 2g
// update-rebuild trigger, so the boxes are the build's, grown by the
// drift. It returns the index, the centroids' current positions and
// `queries` further records of the stream.
func driftedIndex(tb testing.TB, g, routed, queries int) (*CentroidIndex, []mat.Vector, []mat.Vector) {
	tb.Helper()
	r := rng.New(7)
	a := make([]float64, 8*3)
	for i := range a {
		a[i] = r.Norm()
	}
	cents := corrStream(r, a, g)
	idx, err := NewCentroidIndex(8, flatten(cents))
	if err != nil {
		tb.Fatal(err)
	}
	sizes := make([]float64, g)
	for i := range sizes {
		sizes[i] = 25
	}
	for _, x := range corrStream(r, a, routed) {
		id, _ := idx.Nearest(x)
		sizes[id]++
		c := cents[id]
		for j := range c {
			c[j] += (x[j] - c[j]) / sizes[id]
		}
		if err := idx.Update(id, c); err != nil {
			tb.Fatal(err)
		}
	}
	if idx.updates != routed {
		tb.Fatalf("index rebuilt during the drift (%d updates since, want %d)", idx.updates, routed)
	}
	return idx, cents, corrStream(r, a, queries)
}

// Pruning effort: an index whose centroids drifted under routed records
// must sweep about as few leaves per query as one freshly built over the
// same positions. Inflating every search by the largest drift since the
// build cost 1.5× the fresh leaf visits here; exact grown boxes stay
// within 1.15×.
func TestCentroidIndexPruningEffort(t *testing.T) {
	drifted, cents, qs := driftedIndex(t, 4000, 6000, 2000)
	fresh, err := NewCentroidIndex(8, flatten(cents))
	if err != nil {
		t.Fatal(err)
	}
	drifted.effort, fresh.effort = &ctEffort{}, &ctEffort{}
	for _, q := range qs {
		dID, dD := drifted.Nearest(q)
		fID, fD := fresh.Nearest(q)
		if dID != fID || dD != fD {
			t.Fatalf("drifted index answered (%d, %g), fresh (%d, %g)", dID, dD, fID, fD)
		}
	}
	perQuery := func(e *ctEffort) (float64, float64) {
		return float64(e.leaves) / float64(e.queries), float64(e.boxes) / float64(e.queries)
	}
	dl, db := perQuery(drifted.effort)
	fl, fb := perQuery(fresh.effort)
	t.Logf("leaves/query: drifted %.2f, fresh %.2f (%.3f×); boxes/query: drifted %.1f, fresh %.1f", dl, fl, dl/fl, db, fb)
	if dl > 1.15*fl {
		t.Errorf("drifted index sweeps %.2f leaves per query, %.2f× the fresh index's %.2f (bound 1.15×)", dl, dl/fl, fl)
	}
}

// nearestSink keeps benchmarked queries from being optimized away.
var nearestSink int

// BenchmarkCentroidIndexNearest times one query against a freshly built
// index and against one whose centroids drifted under routed records.
func BenchmarkCentroidIndexNearest(b *testing.B) {
	drifted, cents, qs := driftedIndex(b, 4000, 6000, 2000)
	fresh, err := NewCentroidIndex(8, flatten(cents))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		idx  *CentroidIndex
	}{{"fresh", fresh}, {"drifted", drifted}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nearestSink, _ = bc.idx.Nearest(qs[i%len(qs)])
			}
		})
	}
}
