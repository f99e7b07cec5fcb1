// Package kernel holds the bounds-check-eliminated distance kernels behind
// the condensation hot loops: one-query-vs-block squared-distance sweeps
// over a flat row-major []float64 coordinate arena (the knn.CentroidIndex
// arena layout), and the argmin / top-k reductions that every caller's
// lexicographic (distance, id) tie-break contract rests on.
//
// Bit-identity contract: every float64 kernel accumulates each squared
// distance with a SINGLE accumulator in ascending index order — the exact
// operation order of mat.Vector.DistSq — so results are byte-identical to
// the scalar loops they replace. Unrolling only reorders the independent
// subtract/multiply steps, never the additions into the accumulator, and
// a sweep over several rows at once gives each row its own accumulator.
// Early-exit pruning abandons a row only when its partial sum already
// EXCEEDS the incumbent best (strictly); a monotone non-decreasing partial
// sum then proves the full distance exceeds it too, so no row that could
// win — or tie and win on id — is ever skipped, and the winner's distance
// is always the fully accumulated value.
//
// The package is dependency-free on purpose: callers pass mat.Vector
// values through the ~[]float64 generic constraints or as plain slices.
package kernel

import (
	"math"
	"sort"
)

// DistSq returns the squared Euclidean distance between a and b,
// bit-identical to mat.Vector.DistSq. The slices must have equal length.
func DistSq(a, b []float64) float64 {
	if len(a) == 8 && len(b) == 8 {
		return distSq8(a, b)
	}
	return distSqGeneric(a, b)
}

// distSq8 is the fully unrolled dim-8 specialization (the benchmark and
// paper-experiment dimensionality). Single accumulator, ascending order.
func distSq8(a, b []float64) float64 {
	_ = a[7]
	_ = b[7]
	d0 := a[0] - b[0]
	s := d0 * d0
	d1 := a[1] - b[1]
	s += d1 * d1
	d2 := a[2] - b[2]
	s += d2 * d2
	d3 := a[3] - b[3]
	s += d3 * d3
	d4 := a[4] - b[4]
	s += d4 * d4
	d5 := a[5] - b[5]
	s += d5 * d5
	d6 := a[6] - b[6]
	s += d6 * d6
	d7 := a[7] - b[7]
	s += d7 * d7
	return s
}

// distSqGeneric is the any-dimension path, unrolled by four. The double
// bound in the loop condition lets the compiler drop the checks on both
// slices.
func distSqGeneric(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("kernel: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+3 < len(a) && i+3 < len(b); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
	}
	for ; i < len(a) && i < len(b); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// distSqBound accumulates DistSq(a, b) but abandons once the partial sum
// strictly exceeds bound, returning (partial, false). When it returns
// (d, true), d is the bit-exact full distance. Abandoning on strict
// excess keeps exact ties alive for the caller's id tie-break.
func distSqBound(a, b []float64, bound float64) (float64, bool) {
	if len(a) != len(b) {
		panic("kernel: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+3 < len(a) && i+3 < len(b); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
		if s > bound {
			return s, false
		}
	}
	for ; i < len(a) && i < len(b); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	if s > bound {
		return s, false
	}
	return s, true
}

// Sweep fills dist[i] with DistSq(q, row i of block), where block is a
// flat row-major arena of len(dist) rows of len(q) contiguous
// coordinates. Bit-identical to a gather loop over the same points.
func Sweep[Q ~[]float64](dist []float64, q Q, block []float64) {
	d := len(q)
	if len(block) != len(dist)*d {
		panic("kernel: arena size mismatch")
	}
	if d == 8 {
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		for i := range dist {
			r := block[i*8 : i*8+8]
			_ = r[7]
			d0 := r[0] - q0
			s := d0 * d0
			d1 := r[1] - q1
			s += d1 * d1
			d2 := r[2] - q2
			s += d2 * d2
			d3 := r[3] - q3
			s += d3 * d3
			d4 := r[4] - q4
			s += d4 * d4
			d5 := r[5] - q5
			s += d5 * d5
			d6 := r[6] - q6
			s += d6 * d6
			d7 := r[7] - q7
			s += d7 * d7
			dist[i] = s
		}
		return
	}
	for i := range dist {
		dist[i] = distSqGeneric(block[i*d:i*d+d], q)
	}
}

// ArgminFlat scans the rows of a flat arena for the nearest row to q,
// returning (row, distance) with ties broken toward the lower row index —
// the same answer as a strict `<` ascending scan of the gathered points.
// Returns (-1, +Inf) for an empty arena. Rows whose partial sum exceeds
// the incumbent best are abandoned early; the winner's distance is always
// the full bit-exact accumulation.
func ArgminFlat[Q ~[]float64](q Q, block []float64) (int, float64) {
	return argminFlatFrom(q, block, 0, -1, inf())
}

// ArgminFlatIDs folds the rows of a flat arena into an incumbent
// (bestID, bestD) under the lexicographic (distance, id) order, with row
// i of block carrying external identity ids[i]. It is bit-identical to
//
//	for i, id := range ids {
//	    d := DistSq(q, row i)
//	    if d < bestD || (d == bestD && id < bestID) { bestID, bestD = id, d }
//	}
//
// and is the kernel behind the CentroidIndex leaf scan and its sweep of
// the centroids born since the last rebuild.
func ArgminFlatIDs[Q ~[]float64](q Q, block []float64, ids []int, bestID int, bestD float64) (int, float64) {
	d := len(q)
	if len(block) != len(ids)*d {
		panic("kernel: arena size mismatch")
	}
	if d == 8 {
		// Hand-inlined distSqBound with the query hoisted into locals:
		// at dim 8 the call boundary and the per-row query reloads are
		// the scan's dominant cost. Rows go four at a time, one
		// accumulator each, so the four dependency chains overlap; each
		// still adds its squares in ascending order. A block is skipped
		// when all four halfway sums exceed the incumbent. Otherwise the
		// four updates run in row order, and a row whose halfway sum
		// already exceeded the block's starting incumbent cannot pass
		// them: its full sum is larger still.
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		i := 0
		for ; i+4 <= len(ids); i += 4 {
			r := block[i*8 : i*8+32]
			id := ids[i : i+4]
			_, _ = r[31], id[3]
			a0, b0, c0, e0 := r[0]-q0, r[8]-q0, r[16]-q0, r[24]-q0
			sa, sb, sc, se := a0*a0, b0*b0, c0*c0, e0*e0
			a1, b1, c1, e1 := r[1]-q1, r[9]-q1, r[17]-q1, r[25]-q1
			sa, sb, sc, se = sa+a1*a1, sb+b1*b1, sc+c1*c1, se+e1*e1
			a2, b2, c2, e2 := r[2]-q2, r[10]-q2, r[18]-q2, r[26]-q2
			sa, sb, sc, se = sa+a2*a2, sb+b2*b2, sc+c2*c2, se+e2*e2
			a3, b3, c3, e3 := r[3]-q3, r[11]-q3, r[19]-q3, r[27]-q3
			sa, sb, sc, se = sa+a3*a3, sb+b3*b3, sc+c3*c3, se+e3*e3
			if sa > bestD && sb > bestD && sc > bestD && se > bestD {
				continue
			}
			a4, b4, c4, e4 := r[4]-q4, r[12]-q4, r[20]-q4, r[28]-q4
			sa, sb, sc, se = sa+a4*a4, sb+b4*b4, sc+c4*c4, se+e4*e4
			a5, b5, c5, e5 := r[5]-q5, r[13]-q5, r[21]-q5, r[29]-q5
			sa, sb, sc, se = sa+a5*a5, sb+b5*b5, sc+c5*c5, se+e5*e5
			a6, b6, c6, e6 := r[6]-q6, r[14]-q6, r[22]-q6, r[30]-q6
			sa, sb, sc, se = sa+a6*a6, sb+b6*b6, sc+c6*c6, se+e6*e6
			a7, b7, c7, e7 := r[7]-q7, r[15]-q7, r[23]-q7, r[31]-q7
			sa, sb, sc, se = sa+a7*a7, sb+b7*b7, sc+c7*c7, se+e7*e7
			if sa < bestD || (sa == bestD && id[0] < bestID) {
				bestID, bestD = id[0], sa
			}
			if sb < bestD || (sb == bestD && id[1] < bestID) {
				bestID, bestD = id[1], sb
			}
			if sc < bestD || (sc == bestD && id[2] < bestID) {
				bestID, bestD = id[2], sc
			}
			if se < bestD || (se == bestD && id[3] < bestID) {
				bestID, bestD = id[3], se
			}
		}
		for ; i < len(ids); i++ {
			r := block[i*8 : i*8+8]
			_ = r[7]
			d0 := r[0] - q0
			s := d0 * d0
			d1 := r[1] - q1
			s += d1 * d1
			d2 := r[2] - q2
			s += d2 * d2
			d3 := r[3] - q3
			s += d3 * d3
			if s > bestD {
				continue
			}
			d4 := r[4] - q4
			s += d4 * d4
			d5 := r[5] - q5
			s += d5 * d5
			d6 := r[6] - q6
			s += d6 * d6
			d7 := r[7] - q7
			s += d7 * d7
			if s < bestD || (s == bestD && ids[i] < bestID) {
				bestID, bestD = ids[i], s
			}
		}
		return bestID, bestD
	}
	for i, id := range ids {
		dd, ok := distSqBound(block[i*d:i*d+d], q, bestD)
		if !ok {
			continue
		}
		if dd < bestD || (dd == bestD && id < bestID) {
			bestID, bestD = id, dd
		}
	}
	return bestID, bestD
}

// argminFlatFrom folds arena rows with identities base, base+1, ... into
// the incumbent. Because row order IS id order here, an exact tie can
// never displace the incumbent, so the strict bound prune is complete.
func argminFlatFrom[Q ~[]float64](q Q, block []float64, base, bestID int, bestD float64) (int, float64) {
	d := len(q)
	rows := len(block) / d
	if len(block) != rows*d {
		panic("kernel: arena size mismatch")
	}
	if d == 8 {
		// Same hand-inlined form as ArgminFlatIDs; here row order is id
		// order, so the final strict `<` is the complete update condition.
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		for i := 0; i < rows; i++ {
			r := block[i*8 : i*8+8]
			_ = r[7]
			d0 := r[0] - q0
			s := d0 * d0
			d1 := r[1] - q1
			s += d1 * d1
			d2 := r[2] - q2
			s += d2 * d2
			d3 := r[3] - q3
			s += d3 * d3
			if s > bestD {
				continue
			}
			d4 := r[4] - q4
			s += d4 * d4
			d5 := r[5] - q5
			s += d5 * d5
			d6 := r[6] - q6
			s += d6 * d6
			d7 := r[7] - q7
			s += d7 * d7
			if s < bestD {
				bestID, bestD = base+i, s
			}
		}
		return bestID, bestD
	}
	for i := 0; i < rows; i++ {
		dd, ok := distSqBound(block[i*d:i*d+d], q, bestD)
		if ok && dd < bestD {
			bestID, bestD = base+i, dd
		}
	}
	return bestID, bestD
}

// TopK arranges order so that its first k entries are the positions of
// the k smallest (dist[pos], ids[pos]) keys in ascending lexicographic
// order. It is the quickselect + sort reduction the static condensation
// backends use; ids carries the tie-breaking identity of each position
// (e.g. the alive record id). k larger than len(order) selects everything.
func TopK(order []int, dist []float64, ids []int, k int) {
	if k < len(order) {
		quickselect(order, dist, ids, k)
		order = order[:k]
	}
	sort.Slice(order, func(a, b int) bool {
		return lessByDist(dist, ids, order[a], order[b])
	})
}

// lessByDist is the lexicographic (distance, id) order over positions.
func lessByDist(dist []float64, ids []int, a, b int) bool {
	if dist[a] != dist[b] {
		return dist[a] < dist[b]
	}
	return ids[a] < ids[b]
}

// quickselect partitions order so its first k entries hold the k smallest
// keys (in arbitrary order), by median-of-three Lomuto partitioning.
func quickselect(order []int, dist []float64, ids []int, k int) {
	lo, hi := 0, len(order)
	for hi-lo > 1 {
		p := partition(order, dist, ids, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// partition picks a median-of-three pivot, moves it to the end, and
// partitions [lo, hi) around it, returning the pivot's final position.
func partition(order []int, dist []float64, ids []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	if lessByDist(dist, ids, order[mid], order[lo]) {
		order[mid], order[lo] = order[lo], order[mid]
	}
	if lessByDist(dist, ids, order[last], order[lo]) {
		order[last], order[lo] = order[lo], order[last]
	}
	if lessByDist(dist, ids, order[last], order[mid]) {
		order[last], order[mid] = order[mid], order[last]
	}
	order[mid], order[last] = order[last], order[mid]
	pivot := order[last]
	store := lo
	for i := lo; i < last; i++ {
		if lessByDist(dist, ids, order[i], pivot) {
			order[i], order[store] = order[store], order[i]
			store++
		}
	}
	order[store], order[last] = order[last], order[store]
	return store
}

// inf is the fold identity for argmin incumbents.
func inf() float64 {
	return math.Inf(1)
}
