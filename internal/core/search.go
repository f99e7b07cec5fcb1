package core

import (
	"fmt"
	"runtime"
	"sync"

	"condensation/internal/kernel"
)

// NeighborSearch pins the nearest-neighbour search of static
// construction: the k−1 nearest records of a sampled seed. Both choices
// are exact, so it changes speed only (TestSearchBackendEquivalence). Ties
// fall to the lower record index, except in the full sort, whose tie
// order is whatever the sort produces. Dynamic routing (the nearest
// centroid) always runs the shard's knn.CentroidIndex, whatever the value.
type NeighborSearch int

const (
	// SearchAuto is the default: the quickselect scan.
	SearchAuto NeighborSearch = iota
	// SearchScanSort is the reference: a full distance scan and full sort
	// per static group.
	SearchScanSort
)

// String returns the search-backend name.
func (s NeighborSearch) String() string {
	switch s {
	case SearchAuto:
		return "auto"
	case SearchScanSort:
		return "scan-sort"
	default:
		return fmt.Sprintf("NeighborSearch(%d)", int(s))
	}
}

func (s NeighborSearch) validate() error {
	switch s {
	case SearchAuto, SearchScanSort:
		return nil
	default:
		return fmt.Errorf("core: unknown neighbour search %d", int(s))
	}
}

// searchConfig carries a Condenser's performance knobs. They deliberately
// live outside Options: they never change the condensed statistics, only
// how fast they are computed, so they are not part of the persisted
// condensation state.
type searchConfig struct {
	// Search selects the static neighbour search (default SearchAuto).
	Search NeighborSearch
	// Parallelism bounds the worker goroutines of the static distance
	// sweep and of synthesis; values < 1 mean runtime.NumCPU().
	Parallelism int
}

// workers resolves the effective worker count.
func (c searchConfig) workers() int {
	if c.Parallelism < 1 {
		return runtime.NumCPU()
	}
	return c.Parallelism
}

// parallelSweepCutoff is the remaining-set size below which the distance
// sweep stays single-threaded: under ~8k distances the goroutine fan-out
// costs more than it saves.
const parallelSweepCutoff = 8192

// sweepArena fills dist[i] with the squared distance from seed to row i
// of the flat coordinate arena, chunked across at most `workers`
// goroutines when the sweep is large enough to amortize the fan-out. Each
// worker writes a disjoint range, so the result is identical to the
// serial kernel sweep — which is itself bit-identical to the gathered
// scalar loop it replaced (kernel package contract).
func sweepArena(dist []float64, seed []float64, arena []float64, dim, workers int) {
	n := len(dist)
	if workers <= 1 || n < parallelSweepCutoff {
		kernel.Sweep(dist, seed, arena[:n*dim])
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			kernel.Sweep(dist[lo:hi], seed, arena[lo*dim:hi*dim])
		}(lo, hi)
	}
	wg.Wait()
}

// selectNearest arranges order so that its first k entries are the k
// positions with the smallest (dist, alive index) keys, in ascending
// order. order must hold a permutation of [0, len(dist)) on entry.
//
// The reduction is kernel.TopK: deterministic median-of-three quickselect
// (expected O(n), no randomness drawn, so it never perturbs the caller's
// rng stream) followed by a sort of only the selected k entries, under
// the lexicographic (distance, record index) order every backend shares.
func selectNearest(order []int, dist []float64, alive []int, k int) {
	kernel.TopK(order, dist, alive, k)
}
