package kernel

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refDistSq is the scalar reference: mat.Vector.DistSq's exact loop.
func refDistSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func randVec(r *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = r.NormFloat64() * 3
	}
	return v
}

// randBlock returns n rows of dimension d both as a flat arena and as a
// gathered point set, with deliberate exact duplicates so argmin ties are
// exercised.
func randBlock(r *rand.Rand, n, d int) ([]float64, [][]float64) {
	flat := make([]float64, 0, n*d)
	pts := make([][]float64, n)
	for i := range pts {
		var row []float64
		if i > 0 && r.IntN(4) == 0 {
			row = append([]float64(nil), pts[r.IntN(i)]...)
		} else {
			row = randVec(r, d)
		}
		pts[i] = row
		flat = append(flat, row...)
	}
	return flat, pts
}

func TestDistSqMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 31, 40} {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(r, d), randVec(r, d)
			got, want := DistSq(a, b), refDistSq(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d: DistSq=%x ref=%x", d, got, want)
			}
		}
	}
}

func TestSweepMatchesDistSq(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, d := range []int{1, 3, 8, 11} {
		flat, pts := randBlock(r, 57, d)
		q := randVec(r, d)
		dist := make([]float64, len(pts))
		Sweep(dist, q, flat)
		for i, p := range pts {
			if math.Float64bits(dist[i]) != math.Float64bits(refDistSq(q, p)) {
				t.Fatalf("d=%d row=%d: sweep mismatch", d, i)
			}
		}
	}
}

func TestArgminFlatMatchesScan(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, d := range []int{1, 8, 9} {
		for trial := 0; trial < 30; trial++ {
			flat, pts := randBlock(r, 1+r.IntN(80), d)
			q := randVec(r, d)
			if trial%5 == 0 {
				// Query equal to an arena row: exact zero-distance ties.
				q = append([]float64(nil), pts[r.IntN(len(pts))]...)
			}
			wantID, wantD := -1, math.Inf(1)
			for i, p := range pts {
				if dd := refDistSq(q, p); dd < wantD {
					wantID, wantD = i, dd
				}
			}
			gotID, gotD := ArgminFlat(q, flat)
			if gotID != wantID || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("d=%d: got (%d,%v) want (%d,%v)", d, gotID, gotD, wantID, wantD)
			}
		}
	}
	if id, dd := ArgminFlat([]float64{1, 2}, nil); id != -1 || !math.IsInf(dd, 1) {
		t.Fatalf("empty arena: got (%d,%v)", id, dd)
	}
}

// dyadicBlock returns n rows of dimension d whose coordinates are
// multiples of 0.5 in [0, 1]: every squared distance between two such
// vectors is exact, so distinct rows tie exactly and often.
func dyadicBlock(r *rand.Rand, n, d int) ([]float64, [][]float64) {
	flat := make([]float64, n*d)
	for i := range flat {
		flat[i] = float64(r.IntN(3)) / 2
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = flat[i*d : (i+1)*d]
	}
	return flat, pts
}

// TestArgminFlatIDsMatchesFold checks the kernel against the scalar
// lexicographic fold at every leftover count of the four-row dim-8 sweep
// (lengths 0–9 and 63–65), with duplicate ids in arbitrary order, an
// empty, a far or a tying incumbent, and dyadic blocks whose exact ties
// fall within a four-row block, across block boundaries and against the
// incumbent.
func TestArgminFlatIDsMatchesFold(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}
	ties := 0
	for _, d := range []int{2, 8} {
		for _, n := range lengths {
			for trial := 0; trial < 40; trial++ {
				dyadic := trial%2 == 1
				var flat []float64
				var pts [][]float64
				var q []float64
				if dyadic {
					flat, pts = dyadicBlock(r, n, d)
					_, qs := dyadicBlock(r, 1, d)
					q = qs[0]
				} else {
					flat, pts = randBlock(r, n, d)
					q = randVec(r, d)
					if n > 0 && trial%4 == 0 {
						q = append([]float64(nil), pts[r.IntN(n)]...)
					}
				}
				ids := make([]int, n)
				for i := range ids {
					ids[i] = r.IntN(n + 1) // duplicates and arbitrary order on purpose
				}
				seedID, seedD := -1, math.Inf(1)
				switch {
				case trial%3 == 1:
					seedID, seedD = r.IntN(n+2), 1e9
				case trial%3 == 2 && n > 0:
					// An incumbent at some row's exact distance.
					seedID, seedD = r.IntN(n+2), refDistSq(q, pts[r.IntN(n)])
				}
				wantID, wantD := seedID, seedD
				for i, p := range pts {
					dd := refDistSq(q, p)
					if dd == wantD && ids[i] != wantID {
						ties++
					}
					if dd < wantD || (dd == wantD && ids[i] < wantID) {
						wantID, wantD = ids[i], dd
					}
				}
				gotID, gotD := ArgminFlatIDs(q, flat, ids, seedID, seedD)
				if gotID != wantID || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("d=%d n=%d trial=%d: got (%d,%v) want (%d,%v)", d, n, trial, gotID, gotD, wantID, wantD)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no exact tie between distinct ids was exercised")
	}
}

func TestTopKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(120)
		dist := make([]float64, n)
		ids := make([]int, n)
		for i := range dist {
			dist[i] = float64(r.IntN(12)) // heavy exact ties
			ids[i] = r.IntN(200)
		}
		k := 1 + r.IntN(n+3) // sometimes k > n
		order := make([]int, n)
		want := make([]int, n)
		for i := range order {
			order[i], want[i] = i, i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return lessByDist(dist, ids, want[a], want[b])
		})
		TopK(order, dist, ids, k)
		top := k
		if top > n {
			top = n
		}
		for i := 0; i < top; i++ {
			g, w := order[i], want[i]
			if dist[g] != dist[w] || ids[g] != ids[w] {
				t.Fatalf("k=%d pos=%d: got key (%v,%d) want (%v,%d)", k, i, dist[g], ids[g], dist[w], ids[w])
			}
		}
	}
}
