package kernel

import (
	"math/rand/v2"
	"testing"
)

func benchArena(rows, dim int) ([]float64, []float64) {
	r := rand.New(rand.NewPCG(21, 22))
	flat := make([]float64, rows*dim)
	for i := range flat {
		flat[i] = r.NormFloat64()
	}
	q := make([]float64, dim)
	for i := range q {
		q[i] = r.NormFloat64()
	}
	return flat, q
}

func BenchmarkKernelSweep(b *testing.B) {
	flat, q := benchArena(800, 8)
	dist := make([]float64, 800)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sweep(dist, q, flat)
	}
}

func BenchmarkKernelArgminFlat(b *testing.B) {
	flat, q := benchArena(800, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ArgminFlat(q, flat)
	}
}

// BenchmarkKernelArgminFlatIDs folds one 64-row dim-8 leaf, the
// CentroidIndex leaf size, into an empty incumbent: the leaf sweep of a
// routing search.
func BenchmarkKernelArgminFlatIDs(b *testing.B) {
	flat, q := benchArena(64, 8)
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ArgminFlatIDs(q, flat, ids, -1, inf())
	}
}
