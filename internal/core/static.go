package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"condensation/internal/kernel"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// staticCondense is the engine behind Condenser.Static, StaticWithMembers,
// Bootstrap and Anonymize. Per group it draws exactly one value from r (the
// seed-record sample), so both neighbour searches consume the identical rng
// stream; with distinct pairwise distances they therefore produce identical
// groups, with members added in ascending-distance order.
func (c *Condenser) staticCondense(records []mat.Vector, r *rng.Source) (*Condensation, [][]int, error) {
	k := c.k
	if len(records) == 0 {
		return nil, nil, errors.New("core: no records to condense")
	}
	dim := len(records[0])
	for i, x := range records {
		if len(x) != dim {
			return nil, nil, fmt.Errorf("core: record %d has dimension %d, want %d", i, len(x), dim)
		}
		if !x.IsFinite() {
			return nil, nil, fmt.Errorf("core: record %d has non-finite values", i)
		}
		if err := CheckRecordMagnitude(x); err != nil {
			return nil, nil, fmt.Errorf("core: record %d: %w", i, err)
		}
	}

	met := newEngineMetrics(c.tel)
	met.withSearchBackend(c.tel, searchBackendLabel(c.search.Search))

	span := c.trace.StartChild(nil, "static.condense")
	span.SetAttrInt("records", len(records))
	span.SetAttrInt("k", k)
	span.SetAttr("backend", searchBackendLabel(c.search.Search))
	defer span.End()

	// k = 1 needs no neighbour search: every record is its own group. This
	// is the paper's anchor case (static condensation at group size 1
	// equals the original data) and deserves the O(n) fast path.
	if k == 1 {
		groups := make([]*stats.Group, len(records))
		members := make([][]int, len(records))
		for i, x := range records {
			g := stats.NewGroup(dim)
			if err := g.Add(x); err != nil {
				return nil, nil, err
			}
			groups[i] = g
			members[i] = []int{i}
		}
		met.groupsFormed.Add(len(groups))
		cond := newCondensation(dim, k, c.opts, groups)
		cond.par = c.search.Parallelism
		cond.met = met
		return cond, members, nil
	}

	search := newNeighborSearcher(records, c.search)

	var groups []*stats.Group
	var members [][]int
	var t0 time.Time
	loopSpan := childSpan(c.trace, span, "static.groups")
	for search.remaining() >= k {
		// Randomly sample a data point X from D, then pull X and its k−1
		// closest remaining records out of the alive set.
		pick := r.IntN(search.remaining())
		if met.enabled {
			t0 = time.Now()
		}
		group := search.takeGroup(pick, k)
		if met.enabled {
			met.search.ObserveSince(t0)
			t0 = time.Now()
		}
		g := stats.NewGroup(dim)
		for _, idx := range group {
			if err := g.Add(records[idx]); err != nil {
				return nil, nil, fmt.Errorf("core: adding record to group: %w", err)
			}
		}
		if met.enabled {
			met.stats.ObserveSince(t0)
		}
		met.groupsFormed.Inc()
		groups = append(groups, g)
		members = append(members, group)
	}
	loopSpan.SetAttrInt("groups", len(groups))
	loopSpan.End()

	// Handle the final < k leftover records.
	if leftover := search.leftover(); len(leftover) > 0 {
		leftSpan := childSpan(c.trace, span, "static.leftover")
		leftSpan.SetAttrInt("records", len(leftover))
		defer leftSpan.End()
		switch c.opts.Leftover {
		case LeftoverNearestGroup:
			if len(groups) == 0 {
				// Fewer than k records in total: the best available option
				// is a single undersized group (the caller asked for an
				// indistinguishability level the data cannot support).
				g := stats.NewGroup(dim)
				for _, idx := range leftover {
					if err := g.Add(records[idx]); err != nil {
						return nil, nil, err
					}
				}
				groups = append(groups, g)
				members = append(members, leftover)
				break
			}
			// Group centroids are snapshotted once into a flat arena (they
			// are deliberately not refreshed as leftovers merge in), so
			// each leftover record is one kernel argmin sweep.
			centroids := make([]float64, 0, len(groups)*dim)
			for _, g := range groups {
				m, err := g.Mean()
				if err != nil {
					return nil, nil, err
				}
				centroids = append(centroids, m...)
			}
			for _, idx := range leftover {
				best, _ := kernel.ArgminFlat(records[idx], centroids)
				if err := groups[best].Add(records[idx]); err != nil {
					return nil, nil, err
				}
				members[best] = append(members[best], idx)
			}
			met.leftovers.Add(len(leftover))
		case LeftoverOwnGroup:
			g := stats.NewGroup(dim)
			for _, idx := range leftover {
				if err := g.Add(records[idx]); err != nil {
					return nil, nil, err
				}
			}
			groups = append(groups, g)
			members = append(members, leftover)
		}
	}

	// The sweep parallelism doubles as the synthesis parallelism of the
	// resulting condensation — one knob end to end.
	cond := newCondensation(dim, k, c.opts, groups)
	cond.par = c.search.Parallelism
	cond.met = met
	return cond, members, nil
}

// newNeighborSearcher builds the static construction's alive-set search
// over records: the quickselect scan, or the full sort under
// SearchScanSort.
func newNeighborSearcher(records []mat.Vector, cfg searchConfig) *scanSearcher {
	// alive holds indices of records not yet assigned to a group. Removal
	// is swap-delete, so order is not preserved — grouping is randomized by
	// the sampling step anyway.
	alive := make([]int, len(records))
	for i := range alive {
		alive[i] = i
	}
	dim := len(records[0])
	// The arena mirrors the alive set row for row: arena row i holds the
	// coordinates of record alive[i], so the kernel sweeps run over
	// contiguous memory instead of gathering through the records slice.
	// Swap-deletes move rows in lockstep with alive.
	arena := make([]float64, len(records)*dim)
	for i, x := range records {
		copy(arena[i*dim:(i+1)*dim], x)
	}
	return &scanSearcher{
		dim:      dim,
		arena:    arena,
		alive:    alive,
		fullSort: cfg.Search == SearchScanSort,
		workers:  cfg.workers(),
		dist:     make([]float64, len(records)),
		order:    make([]int, len(records)),
		chosen:   make([]int, 0, len(records)),
	}
}

// scanSearcher finds neighbours by sweeping distances over the alive set —
// in parallel chunks when the set is large — and then either quickselecting
// the k nearest (default) or fully sorting (the scan-sort reference). The
// dist/order/chosen scratch slices are allocated once and reused across
// groups.
type scanSearcher struct {
	dim      int
	arena    []float64 // flat row-major coordinates, row i = record alive[i]
	alive    []int
	fullSort bool
	workers  int

	dist   []float64 // distance from the current seed, by alive position
	order  []int     // alive positions, permuted during selection
	chosen []int     // alive positions picked for the current group
}

// remaining returns the number of not-yet-grouped records.
func (s *scanSearcher) remaining() int { return len(s.alive) }

// takeGroup removes the record at alive position pick plus its k−1
// nearest surviving records and returns their record indices in
// ascending-distance order (the seed record first).
func (s *scanSearcher) takeGroup(pick, k int) []int {
	seed := s.arena[pick*s.dim : (pick+1)*s.dim]
	dist := s.dist[:len(s.alive)]
	sweepArena(dist, seed, s.arena, s.dim, s.workers)

	// Order alive positions by distance to the seed; position `pick` has
	// distance 0 and is selected first (ties broken by record index).
	order := s.order[:len(s.alive)]
	for i := range order {
		order[i] = i
	}
	if s.fullSort {
		sort.Slice(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
	} else {
		selectNearest(order, dist, s.alive, k)
	}

	group := make([]int, k)
	for i, pos := range order[:k] {
		group[i] = s.alive[pos]
	}

	// Delete the k chosen records from the alive set (descending positions
	// so swap-delete does not disturb pending positions).
	s.chosen = append(s.chosen[:0], order[:k]...)
	sort.Sort(sort.Reverse(sort.IntSlice(s.chosen)))
	for _, pos := range s.chosen {
		last := len(s.alive) - 1
		s.alive[pos] = s.alive[last]
		copy(s.arena[pos*s.dim:(pos+1)*s.dim], s.arena[last*s.dim:(last+1)*s.dim])
		s.alive = s.alive[:last]
	}
	return group
}

// leftover removes and returns the record indices still alive, in
// alive-set order.
func (s *scanSearcher) leftover() []int {
	out := append([]int(nil), s.alive...)
	s.alive = s.alive[:0]
	return out
}
