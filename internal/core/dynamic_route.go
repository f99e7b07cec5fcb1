package core

import (
	"fmt"

	"condensation/internal/kernel"
	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/telemetry"
)

// dynamicIndexCutoff is the group count at which SearchAuto stops scanning
// centroids linearly and switches to the maintained kd-index: below it the
// scan's tight loop wins, above it the index's pruned descent does. The
// true crossover depends on how correlated the data is — a few hundred
// groups when attributes are correlated (the regime the paper targets),
// higher for isotropic noise where box pruning is weakest — so the cutoff
// splits the difference; force SearchScanSort or SearchKDTree to pin a
// backend. The switch is behaviour-neutral — both routers are exact with
// the same (distance, id) tie-break — so the cutoff is purely a speed
// knob.
const dynamicIndexCutoff = 256

// centroidRouter answers "which group centroid is nearest to x" for the
// dynamic engine. Implementations must be exact and deterministic: nearest
// returns the lexicographic (squared distance, group id) minimum — the
// answer the paper's linear scan over H produces — so every router routes
// every record identically and the condensed statistics are bit-identical
// across backends. update/add keep the router in sync with the engine's
// in-place centroid cache; nearest must be safe for concurrent callers
// between mutations (AddBatch's speculation phase fans it out read-only).
type centroidRouter interface {
	// nearest returns the nearest centroid's group id and squared
	// distance. The engine never calls it with zero groups.
	nearest(x mat.Vector) (int, float64)
	// update tells the router centroid id moved (sh.centroids[id] holds
	// the new position).
	update(id int)
	// add tells the router centroid id was appended.
	add(id int)
	// label names the backend for the neighbor_search telemetry series.
	label() string
}

// batchRouter is the optional bulk face of a router: nearestBatch answers
// nearest for qs[i] into ids[i]/ds[i], identical to len(qs) independent
// nearest calls. AddBatch's speculation phase uses it when available so
// the whole chunk runs through the cache-blocked block-vs-block kernel.
type batchRouter interface {
	nearestBatch(qs []mat.Vector, ids []int, ds []float64)
}

// scanRouter is the reference backend: the paper's linear scan over the
// group centroids, kept as a flat row-major arena so nearest is one
// contiguous kernel sweep (O(G·d), no pointer chasing). update and add
// mirror the engine's in-place centroid cache into the arena; both are
// only called between queries (engine mutations are sequential), so
// concurrent speculation reads never race them.
type scanRouter struct {
	sh    *shard
	arena []float64 // row i = sh.centroids[i], kept current
}

func newScanRouter(sh *shard) *scanRouter {
	s := &scanRouter{sh: sh, arena: make([]float64, 0, len(sh.centroids)*sh.dim)}
	for _, c := range sh.centroids {
		s.arena = append(s.arena, c...)
	}
	return s
}

func (s *scanRouter) nearest(x mat.Vector) (int, float64) {
	return kernel.ArgminFlat(x, s.arena)
}

func (s *scanRouter) nearestBatch(qs []mat.Vector, ids []int, ds []float64) {
	kernel.ArgminBatch(ids, ds, qs, s.arena, s.sh.dim)
}

func (s *scanRouter) update(id int) {
	copy(s.arena[id*s.sh.dim:(id+1)*s.sh.dim], s.sh.centroids[id])
}

func (s *scanRouter) add(id int) {
	s.arena = append(s.arena, s.sh.centroids[id]...)
}

func (*scanRouter) label() string { return "centroid-scan" }

// kdRouter answers queries from a knn.CentroidIndex: a box tree over the
// centroids whose boxes grow to contain every updated position, plus a
// linear list of centroids appended since the last rebuild, rebuilt when
// the list or the update count outgrows its threshold. Exactness and the (distance, id)
// tie-break are the index's contract, proven against the scan by
// TestCentroidIndexMatchesScan and TestAddBatchEquivalence.
type kdRouter struct {
	sh  *shard
	idx *knn.CentroidIndex
}

func newKDRouter(sh *shard) *kdRouter {
	idx, err := knn.NewCentroidIndex(sh.dim, sh.centroids)
	if err != nil {
		// Unreachable: the engine validated every centroid's dimension.
		panic(fmt.Sprintf("core: building centroid index: %v", err))
	}
	return &kdRouter{sh: sh, idx: idx}
}

func (k *kdRouter) nearest(x mat.Vector) (int, float64) { return k.idx.Nearest(x) }

func (k *kdRouter) update(id int) {
	if err := k.idx.Update(id, k.sh.centroids[id]); err != nil {
		// Unreachable: ids are dense and dimensions fixed.
		panic(fmt.Sprintf("core: centroid index update: %v", err))
	}
}

func (k *kdRouter) add(id int) {
	if _, err := k.idx.Add(k.sh.centroids[id]); err != nil {
		panic(fmt.Sprintf("core: centroid index add: %v", err))
	}
}

func (*kdRouter) label() string { return "centroid-kdtree" }

// initRouter (re)builds the router for the configured backend and the
// current group count. SearchScanSort pins the scan, SearchKDTree pins
// the kd-index, and SearchAuto starts scanning, promoting to the kd-index
// once the group count reaches dynamicIndexCutoff (maybePromote).
func (sh *shard) initRouter() {
	if sh.search.Search == SearchKDTree ||
		sh.search.Search == SearchAuto && len(sh.groups) >= dynamicIndexCutoff {
		sh.router = newKDRouter(sh)
	} else {
		sh.router = newScanRouter(sh)
	}
	sh.met.withSearchBackend(sh.tel, sh.router.label(), sh.telLabels...)
	if sh.jr != nil {
		sh.jr.Record(telemetry.JournalEvent{
			Type:       telemetry.EventIndexRebuild,
			Shard:      sh.index,
			Generation: sh.lastMut,
			Detail:     fmt.Sprintf("router rebuilt as %s over %d centroids", sh.router.label(), len(sh.centroids)),
		})
	}
}

// maybePromote upgrades an auto-configured scan router to the kd-index
// once the group count crosses the cutoff. Called after every group
// append; both routers are exact, so promotion never changes routing.
func (sh *shard) maybePromote() {
	if sh.search.Search != SearchAuto || len(sh.groups) < dynamicIndexCutoff {
		return
	}
	if _, isScan := sh.router.(*scanRouter); isScan {
		sh.router = newKDRouter(sh)
		sh.met.withSearchBackend(sh.tel, sh.router.label(), sh.telLabels...)
		if sh.jr != nil {
			sh.jr.Record(telemetry.JournalEvent{
				Type:       telemetry.EventIndexRebuild,
				Shard:      sh.index,
				Generation: sh.lastMut,
				Detail:     fmt.Sprintf("auto-promoted scan to %s at %d groups", sh.router.label(), len(sh.groups)),
			})
		}
	}
}

// SetNeighborSearch selects the nearest-centroid routing backend for
// every shard. SearchScanSort pins the reference linear scan
// (routing has no sort to skip); SearchKDTree forces the maintained
// centroid index; SearchAuto (the default) scans while a shard's group
// count is small and promotes to the index at dynamicIndexCutoff groups.
// All backends route identically — TestAddBatchEquivalence proves
// bit-identical condensations — so this is purely a throughput knob.
func (d *Dynamic) SetNeighborSearch(s NeighborSearch) error {
	if err := s.validate(); err != nil {
		return err
	}
	d.eachShard(func(sh *shard) {
		sh.search.Search = s
		sh.initRouter()
	})
	return nil
}
