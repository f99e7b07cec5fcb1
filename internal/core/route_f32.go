package core

import (
	"math"
	"sync"

	"condensation/internal/kernel"
	"condensation/internal/mat"
)

// f32Router is the Float32 index backend: a shadow copy of the centroid
// arena in float32. nearest runs in three steps:
//
//  1. a float32 min-sweep over the shadow arena finds min32, the smallest
//     single-precision squared distance;
//  2. every row whose float32 distance is within min32 + 2·margin is
//     collected, where margin = kernel.MarginF32(dim, maxAbs) bounds
//     |d32 − d64| over the arena (maxAbs tracks the largest coordinate
//     magnitude ever stored or queried, so the bound is monotone and
//     never understates past rows);
//  3. the candidates are re-verified with exact float64 distances against
//     the engine's live centroids, in ascending id order, which restores
//     the exact lexicographic (distance, id) minimum.
//
// Step 2's set provably contains every id achieving the exact minimum:
// for such an id, d32 ≤ d64min + margin ≤ (min32 + margin) + margin. So
// the routing decision — and therefore every group moment, split, and
// synthesis draw downstream — is bit-identical to the float64 scan.
//
// Mutations (update/add) only happen between queries under the engine's
// sequential write discipline; concurrent speculation calls nearest
// read-only with per-call scratch from a sync.Pool.
type f32Router struct {
	sh     *shard
	arena  []float32
	maxAbs float64 // running max |coordinate| over arena rows and queries
	pool   sync.Pool
}

// f32Scratch is the per-nearest-call working set: the converted query and
// the candidate list.
type f32Scratch struct {
	q32  []float32
	cand []int
}

func newF32Router(sh *shard) *f32Router {
	r := &f32Router{sh: sh, arena: make([]float32, 0, len(sh.centroids)*sh.dim)}
	r.pool.New = func() any {
		return &f32Scratch{q32: make([]float32, sh.dim), cand: make([]int, 0, 64)}
	}
	for _, c := range sh.centroids {
		r.appendRow(c)
	}
	return r
}

func (r *f32Router) appendRow(v mat.Vector) {
	for _, x := range v {
		if a := math.Abs(x); a > r.maxAbs {
			r.maxAbs = a
		}
		r.arena = append(r.arena, float32(x))
	}
}

func (r *f32Router) nearest(x mat.Vector) (int, float64) {
	s := r.pool.Get().(*f32Scratch)
	best, bestD := r.nearestWith(x, s)
	r.pool.Put(s)
	return best, bestD
}

// nearestBatch answers a block of queries with one pooled scratch instead
// of a pool round-trip per record; each answer is exactly nearest's.
func (r *f32Router) nearestBatch(qs []mat.Vector, ids []int, ds []float64) {
	s := r.pool.Get().(*f32Scratch)
	for i, x := range qs {
		ids[i], ds[i] = r.nearestWith(x, s)
	}
	r.pool.Put(s)
}

func (r *f32Router) nearestWith(x mat.Vector, s *f32Scratch) (int, float64) {
	q32 := s.q32[:r.sh.dim]
	maxAbs := r.maxAbs
	for j, v := range x {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		q32[j] = float32(v)
	}
	dim := float64(r.sh.dim)
	margin := kernel.MarginF32(r.sh.dim, maxAbs)
	// One fused sweep: exact f32 minimum plus a candidate superset
	// collected against the running minimum + 2·margin (see
	// kernel.MinCollectF32 — the superset still contains every row that
	// can achieve the exact f64 minimum; re-verification drops the rest).
	min32, cand := kernel.MinCollectF32(q32, r.arena, 2*margin, s.cand[:0])
	s.cand = cand
	best, bestD := -1, math.Inf(1)
	if math.IsInf(float64(min32), 1) || maxAbs*maxAbs*dim*64 > math.MaxFloat32 {
		// Magnitudes near the float32 overflow boundary void the margin
		// bound (a squared distance may round to +Inf), so fall back to
		// the exact scan. Unreachable for any sane data scale.
		best, bestD = kernel.ArgminIndexed(x, r.sh.centroids, allIDs(len(r.sh.centroids), &s.cand), best, bestD)
	} else {
		// Exact float64 re-verification, candidates in ascending id order.
		best, bestD = kernel.ArgminIndexed(x, r.sh.centroids, cand, best, bestD)
	}
	return best, bestD
}

// allIDs fills *buf with 0..n-1 for the overflow fallback's full scan.
func allIDs(n int, buf *[]int) []int {
	ids := (*buf)[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	*buf = ids
	return ids
}

func (r *f32Router) update(id int) {
	row := r.arena[id*r.sh.dim : (id+1)*r.sh.dim]
	for j, x := range r.sh.centroids[id] {
		if a := math.Abs(x); a > r.maxAbs {
			r.maxAbs = a
		}
		row[j] = float32(x)
	}
}

func (r *f32Router) add(id int) { r.appendRow(r.sh.centroids[id]) }

func (*f32Router) label() string { return "centroid-scan-f32" }
