package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"condensation/internal/kernel"
	"condensation/internal/mat"
	"condensation/internal/par"
)

// batchScratch holds AddBatch's reusable buffers so steady-state batch
// ingestion allocates nothing per record: candidate routes from the
// speculation phase, and the apply phase's changed-group tracking — the
// changed-id list, a flat arena of the changed groups' live centroids
// (so the per-record fold is one contiguous kernel sweep), and the
// group → changed-row position map that replaces the old touched bitmap.
type batchScratch struct {
	cand        []int
	candD       []float64
	pos         []int32 // group id -> row in changed/changedFlat, -1 if unchanged
	changed     []int
	changedFlat []float64
}

// routes returns candidate/distance slices of length n, reusing backing
// storage across batches.
func (s *batchScratch) routes(n int) ([]int, []float64) {
	if cap(s.cand) < n {
		s.cand = make([]int, n)
		s.candD = make([]float64, n)
	}
	return s.cand[:n], s.candD[:n]
}

// posMap returns the group → changed-row map over n groups, every entry
// -1. Entries stay -1 between batches — addBatch clears the ones it set
// before it returns, on every path — so only the entries of groups born
// since the last batch are filled here, not all n.
func (s *batchScratch) posMap(n int) []int32 {
	if old := len(s.pos); old < n {
		s.pos = slices.Grow(s.pos, n-old)[:n]
		for i := old; i < n; i++ {
			s.pos[i] = -1
		}
	}
	return s.pos[:n]
}

// lockedAddBatch runs addBatch under the shard's write lock, released by
// defer so a panic cannot leave the shard locked.
func (sh *shard) lockedAddBatch(ctx context.Context, records []mat.Vector) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.addBatch(ctx, records)
}

// addBatch is the shard's high-throughput ingest path, producing the
// exact condensation a sequential add loop over the same (already
// validated, non-empty) records produces — bit-identical groups,
// centroids, and rng stream — but routing the batch in parallel. It
// alternates two phases over speculation windows of the batch:
//
//  1. Speculation (parallel, read-only): the window's records are routed
//     to their nearest centroids against the shard state frozen at the
//     window's start, chunked across SetParallelism workers. Each worker
//     writes disjoint slots, so the candidates are identical at every
//     worker count.
//  2. Apply (sequential, input order): each record is folded into its
//     group exactly as add would. A record's speculated candidate is kept
//     only while the candidate group is untouched since speculation; the
//     true nearest is then the lexicographic minimum of the candidate and
//     the groups that changed during the window (moved centroids and
//     split-created groups), a set the loop tracks incrementally as a
//     flat centroid arena. A record whose candidate group itself changed
//     is re-routed against the live centroid index.
//
// The apply phases perform the same group updates, in the same order,
// drawing from the same rng stream as a sequential add loop, so the
// result is bit-identical by construction at any parallelism and window
// size (TestAddBatchEquivalence proves it byte for byte). Cancellation is
// checked between applies; records applied before cancellation stay
// condensed.
func (sh *shard) addBatch(ctx context.Context, records []mat.Vector) error {
	head := 0
	if len(sh.groups) == 0 {
		// Found the first group sequentially; the remainder speculates
		// against it.
		if err := cancelled(ctx); err != nil {
			return fmt.Errorf("core: batch cancelled at record 0: %w", err)
		}
		if err := sh.found(records[0]); err != nil {
			return fmt.Errorf("core: batch record 0: %w", err)
		}
		head = 1
	}
	batch := records[head:]
	if len(batch) == 0 {
		return nil
	}

	_, sp := sh.tr.Start(ctx, "dynamic.add_batch")
	sp.SetAttrInt("records", len(records))
	defer sp.End()

	// The batch proceeds in speculation windows: each window of records is
	// routed in parallel against the engine state frozen at the window's
	// start, then applied sequentially in input order. A window's apply
	// keeps a record's speculated candidate only while the candidate group
	// is unchanged since the window started; the true nearest is then the
	// lexicographic minimum of the candidate and the groups changed during
	// the window — a set the loop tracks as a flat arena of live
	// centroids, so the fold is one contiguous kernel sweep. A record
	// whose candidate group itself changed is re-routed live. Every
	// record is therefore routed exactly as a sequential Add would route
	// it, at any window size — the window only bounds how large the
	// changed set can grow, keeping the fold O(window) instead of
	// O(batch).
	cand, candD := sh.scratch.routes(len(batch))
	workers := par.Workers(sh.parallelism)
	specSpan := childSpan(sh.tr, sp, "dynamic.speculate")
	specSpan.SetAttrInt("workers", workers)
	applySpan := childSpan(sh.tr, sp, "dynamic.apply")
	pos := sh.scratch.posMap(len(sh.groups))
	changed := sh.scratch.changed[:0]
	changedFlat := sh.scratch.changedFlat[:0]
	applied := 0
	fallbacks := 0
	var searchDur time.Duration
	defer func() {
		// Leave every pos entry -1 for the next batch: earlier windows
		// cleared theirs, so only the last window's changed groups remain,
		// however the batch ended. Splits may have grown the slices past
		// their scratch capacity; keep the grown backing arrays.
		for _, g := range changed {
			pos[g] = -1
		}
		sh.scratch.pos = pos
		sh.scratch.changed = changed
		sh.scratch.changedFlat = changedFlat
		if sh.met.enabled {
			sh.met.search.Observe(searchDur.Seconds())
		}
		sh.met.streamRecords.Add(applied)
		sh.met.specFallbacks.Add(fallbacks)
		applySpan.SetAttrInt("applied", applied)
		applySpan.End()
		specSpan.End()
	}()
	dim := sh.dim
	for wlo := 0; wlo < len(batch); wlo += speculationWindow {
		whi := wlo + speculationWindow
		if whi > len(batch) {
			whi = len(batch)
		}
		window := batch[wlo:whi]
		wcand, wcandD := cand[wlo:whi], candD[wlo:whi]

		// Speculative routing against the state frozen at window start.
		// Workers only read centroids and write disjoint candidate slots.
		var t0 time.Time
		if sh.met.enabled {
			t0 = time.Now()
		}
		_ = par.RunChunks(len(window), workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				wcand[i], wcandD[i] = sh.router.Nearest(window[i])
			}
			return nil
		})
		if sh.met.enabled {
			searchDur += time.Since(t0)
		}
		sh.routed += len(window)

		// Sequential apply in input order; the changed set restarts empty
		// because this window speculated against the current state.
		for _, g := range changed {
			pos[g] = -1
		}
		changed = changed[:0]
		changedFlat = changedFlat[:0]
		for i, x := range window {
			if err := cancelled(ctx); err != nil {
				return fmt.Errorf("core: batch cancelled at record %d: %w", head+wlo+i, err)
			}
			best, bestD := wcand[i], wcandD[i]
			if pos[best] >= 0 {
				// The candidate group moved or split since speculation;
				// its stored distance is stale, so re-route live.
				best, _ = sh.router.Nearest(x)
				fallbacks++
			} else {
				// The candidate still holds the lexicographic minimum
				// over every unchanged group; only groups changed during
				// this window can beat it. The arena rows are the changed
				// groups' live centroids, so the fold matches the
				// reference gather scan.
				best, bestD = kernel.ArgminFlatIDs(x, changedFlat, changed, best, bestD)
			}
			before := len(sh.groups)
			if err := sh.ingest(best, x, applySpan); err != nil {
				return fmt.Errorf("core: batch record %d: %w", head+wlo+i, err)
			}
			applied++
			// Refresh (or admit) the ingested group's arena row with its
			// post-ingest centroid; on a split, router point best is M1's.
			if p := pos[best]; p >= 0 {
				copy(changedFlat[int(p)*dim:(int(p)+1)*dim], sh.router.Point(best))
			} else {
				pos[best] = int32(len(changed))
				changed = append(changed, best)
				changedFlat = append(changedFlat, sh.router.Point(best)...)
			}
			if len(sh.groups) > before {
				// The split appended exactly one group, changed by
				// definition.
				g := len(sh.groups) - 1
				pos = append(pos, int32(len(changed)))
				changed = append(changed, g)
				changedFlat = append(changedFlat, sh.router.Point(g)...)
			}
		}
	}
	return nil
}

// cancelled returns ctx's error once ctx is done, and nil before. It
// polls Done without blocking rather than calling Err, which takes a
// mutex on a cancelable context: the apply loop checks once per record.
func cancelled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// speculationWindow is how many records AddBatch routes per speculation
// pass. Smaller windows re-speculate against fresher state, which keeps
// the apply phase's changed-group fold short (it can never exceed the
// window size in distinct moved groups); larger windows amortize the
// fan-out overhead over more records. Either way the routing decisions —
// and thus the condensation — are identical: the window is purely a
// throughput knob. 256 records balances the two costs at the benchmark
// shapes (dim 8, hundreds of groups).
const speculationWindow = 256
