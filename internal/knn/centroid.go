package knn

import (
	"fmt"
	"math"

	"condensation/internal/kernel"
	"condensation/internal/mat"
)

// CentroidIndex is an exact nearest-neighbour index over a small, mutable
// point set — the condensed-group centroids of the dynamic maintenance
// algorithm. Unlike the static KDTree, its points move (every absorbed
// record drifts one group mean) and new points appear (every split adds a
// group), so the index combines three mechanisms:
//
//   - a bounding-box tree whose leaf coordinates and node boxes are both
//     kept EXACT: an update writes the moved point's coordinates straight
//     into its leaf slot and grows its leaf's box, then each ancestor's,
//     to contain the new position, stopping at the first box that already
//     does. Every box therefore bounds the current positions of its
//     subtree, and the search prunes against the plain best distance.
//     Boxes only grow between rebuilds (a point that moves away leaves its
//     old extent behind), which loosens pruning a little, never
//     correctness. A split's jump grows boxes like any other move: on
//     splitting streams, taking such jumps out of the tree saved under
//     0.5% of leaf sweeps, too little to pay for a second path.
//   - a "dirty" list of the points born since the last rebuild, answered
//     by linear scan. Those are always the ids the last rebuild did not
//     file, so their coordinates are the tail of the id-order arena and
//     the scan is one contiguous sweep.
//   - a threshold rebuild that re-files every point into reused buffers,
//     emptying the dirty list and shrinking every box back to tight.
//
// Every query returns the lexicographic (distance, id) minimum — precisely
// the answer a single linear scan in id order produces — which is what
// lets the dynamic engine route every record through it, at any group
// count, exactly as the paper's linear scan would.
//
// The tree splits each node's longest box extent at the median and stores
// points in leaf buckets laid out contiguously in build order, so a leaf
// scan is a sequential sweep of a flat coordinate array. Box pruning holds
// up in the moderate dimensionalities of condensation workloads (≈5–60
// attributes), where classic splitting-plane kd pruning decays into a full
// scan. The tree is a flat arena of nodes, and every rebuild reuses all
// storage, so steady-state maintenance (update, rebuild, query) allocates
// nothing.
//
// CentroidIndex is not safe for concurrent mutation, but any number of
// goroutines may call Nearest concurrently between mutations — queries
// are read-only.
type CentroidIndex struct {
	dim     int
	points  []float64 // current positions, row id at points[id*dim:(id+1)*dim]
	dirty   []int     // ids added since the last rebuild, exactly [len(perm), Len())
	updates int       // in-tree updates since the last rebuild

	// The tree over ids [0, len(perm)), the points filed at the last
	// rebuild; all storage reused across rebuilds.
	nodes []ctNode  // arena, built depth-first
	boxes []float64 // per node: dim mins then dim maxes, 2*dim*arena-index
	flat  []float64 // leaf coordinates, contiguous in build order, kept current
	perm  []int     // point ids in build order: leaf i covers perm[lo:hi]
	slot  []int     // id -> build-order position in perm/flat
	leaf  []int32   // build-order position -> arena index of its leaf
	root  int       // arena index of the root, -1 when no tree

	effort *ctEffort // search effort tally for the pruning tests; nil otherwise
}

// ctNode is one arena node of the tree: a leaf owns the points perm[lo:hi]
// (coordinates flat[lo*dim:hi*dim]); an internal node owns two children.
type ctNode struct {
	left, right int // arena indices, -1 on a leaf
	parent      int // arena index, -1 at the root
	lo, hi      int // leaf bucket bounds in perm
}

// ctEffort counts what searches cost: leaves swept and boxes tested.
// Only tests set it, and only on an index they query from one goroutine.
type ctEffort struct {
	queries, leaves, boxes int
}

// centroidRebuildMin is the dirty-list length below which a dirty-driven
// rebuild is never triggered: for tiny indexes the linear scan is at least
// as fast as any tree, so rebuilding would be pure overhead.
const centroidRebuildMin = 16

// ctLeafSize is the maximum leaf bucket size: leaves are contiguous flat
// sweeps and internal boxes cost a distance test per visit, so leaves are
// kept fat enough that box tests don't dominate the visit budget. The
// kernel's pruned leaf sweep runs at a few cycles per row, which moves
// the balance point up to fat 64-row leaves.
const ctLeafSize = 64

// NewCentroidIndex builds an index over the centroids of a flat arena in
// id order: centroid id occupies points[id*dim:(id+1)*dim]. The index
// takes ownership of the arena; the caller must not use it afterwards. An
// empty (or nil) arena is allowed; points are then supplied via Add.
func NewCentroidIndex(dim int, points []float64) (*CentroidIndex, error) {
	if dim < 1 {
		return nil, fmt.Errorf("knn: centroid dimension %d, must be ≥ 1", dim)
	}
	if len(points)%dim != 0 {
		return nil, fmt.Errorf("knn: centroid arena of %d values is not whole rows of dimension %d", len(points), dim)
	}
	c := &CentroidIndex{dim: dim, points: points, root: -1}
	for i := range len(points) / dim {
		c.dirty = append(c.dirty, i)
	}
	c.maybeRebuild()
	return c, nil
}

// Len returns the number of indexed centroids.
func (c *CentroidIndex) Len() int { return len(c.points) / c.dim }

// Point returns centroid id's current coordinates as a read-only view of
// the index's arena. The view stays valid until the next Add, which may
// move the arena.
func (c *CentroidIndex) Point(id int) mat.Vector {
	return c.points[id*c.dim : (id+1)*c.dim : (id+1)*c.dim]
}

// Dim returns the dimensionality of the indexed centroids.
func (c *CentroidIndex) Dim() int { return c.dim }

// Add appends a new centroid (copied) and returns its id. Ids are dense
// and stable: the i-th Add (counting initial centroids) owns id i forever.
func (c *CentroidIndex) Add(p mat.Vector) (int, error) {
	if len(p) != c.dim {
		return 0, fmt.Errorf("knn: centroid has dimension %d, want %d", len(p), c.dim)
	}
	id := c.Len()
	c.points = append(c.points, p...)
	c.dirty = append(c.dirty, id)
	c.maybeRebuild()
	return id, nil
}

// Update records that centroid id has moved to p (copied). A point in
// the tree has its leaf coordinates rewritten in place and its boxes grown
// to contain the new position, so distances and boxes stay exact; a point
// on the dirty list is scanned at its current position anyway.
func (c *CentroidIndex) Update(id int, p mat.Vector) error {
	if id < 0 || id >= c.Len() {
		return fmt.Errorf("knn: centroid id %d out of range [0,%d)", id, c.Len())
	}
	if len(p) != c.dim {
		return fmt.Errorf("knn: centroid has dimension %d, want %d", len(p), c.dim)
	}
	if id < len(c.perm) {
		i := c.slot[id]
		copy(c.flat[i*c.dim:(i+1)*c.dim], p)
		c.grow(int(c.leaf[i]), p)
		c.updates++
	}
	copy(c.points[id*c.dim:(id+1)*c.dim], p)
	c.maybeRebuild()
	return nil
}

// grow widens node ni's box to contain p, then each ancestor's, stopping
// at the first box that already contains p. A parent's box contains its
// children's, so once one box holds p every box above it holds the grown
// child box too: every box keeps bounding its subtree's current points.
func (c *CentroidIndex) grow(ni int, p mat.Vector) {
	for ; ni >= 0; ni = c.nodes[ni].parent {
		box := c.boxes[ni*2*c.dim : (ni+1)*2*c.dim]
		lo, hi := box[:c.dim], box[c.dim:]
		grew := false
		for j, v := range p {
			if v < lo[j] {
				lo[j], grew = v, true
			} else if v > hi[j] {
				hi[j], grew = v, true
			}
		}
		if !grew {
			return
		}
	}
}

// maybeRebuild rebuilds the tree over current positions when enough has
// changed to matter: the dirty list has outgrown an eighth of the point
// set, or two updates per point have accumulated, enough that
// re-tightening the grown boxes pays for the build — centroid moves
// shrink as groups fill, so the boxes stay nearly tight for a long time
// and rebuilding more eagerly costs more in builds than it saves in
// pruning. Both triggers are floored so tiny indexes, where the linear
// scan wins anyway, never rebuild. Rebuilding re-files every point into
// reused buffers.
func (c *CentroidIndex) maybeRebuild() {
	n := c.Len()
	dirtyTrigger := len(c.dirty) >= centroidRebuildMin && 8*len(c.dirty) >= n
	updateTrigger := c.updates >= 4*centroidRebuildMin && c.updates >= 2*n
	if !dirtyTrigger && !updateTrigger {
		return
	}
	if cap(c.perm) < n {
		c.perm = make([]int, n)
		c.slot = make([]int, n)
		c.leaf = make([]int32, n)
		c.flat = make([]float64, n*c.dim)
	}
	c.perm, c.slot, c.leaf, c.flat = c.perm[:n], c.slot[:n], c.leaf[:n], c.flat[:n*c.dim]
	for i := range c.perm {
		c.perm[i] = i
	}
	c.nodes = c.nodes[:0]
	c.boxes = c.boxes[:0]
	c.root = c.buildTree(0, n, -1)
	// buildTree partitioned perm into leaf buckets; lay the coordinates
	// out contiguously in that order so leaf scans sweep flat memory.
	for i, id := range c.perm {
		c.slot[id] = i
		copy(c.flat[i*c.dim:], c.Point(id))
	}
	c.dirty = c.dirty[:0]
	c.updates = 0
}

// buildTree appends the subtree over perm[lo:hi] under parent to the arena
// and returns its root's arena index: the node's bounding box is computed
// over its points' current positions, and the box's longest extent is
// median-split until buckets fit in a leaf.
func (c *CentroidIndex) buildTree(lo, hi, parent int) int {
	ni := len(c.nodes)
	c.nodes = append(c.nodes, ctNode{left: -1, right: -1, parent: parent, lo: lo, hi: hi})
	// Bounding box over the bucket: dim mins, then dim maxes.
	b := len(c.boxes)
	first := c.Point(c.perm[lo])
	c.boxes = append(c.boxes, first...)
	c.boxes = append(c.boxes, first...)
	box := c.boxes[b : b+2*c.dim]
	for _, id := range c.perm[lo+1 : hi] {
		for j, v := range c.Point(id) {
			if v < box[j] {
				box[j] = v
			}
			if v > box[c.dim+j] {
				box[c.dim+j] = v
			}
		}
	}
	if hi-lo <= ctLeafSize {
		for i := lo; i < hi; i++ {
			c.leaf[i] = int32(ni)
		}
		return ni
	}
	axis, extent := 0, box[c.dim]-box[0]
	for j := 1; j < c.dim; j++ {
		if e := box[c.dim+j] - box[j]; e > extent {
			axis, extent = j, e
		}
	}
	mid := (lo + hi) / 2
	c.selectByAxis(c.perm[lo:hi], mid-lo, axis)
	left := c.buildTree(lo, mid, ni)
	right := c.buildTree(mid, hi, ni)
	c.nodes[ni].left, c.nodes[ni].right = left, right
	return ni
}

// selectByAxis partially sorts perm so perm[want] holds the element of
// rank want by current coordinate along axis (Hoare quickselect with
// median-of-three pivots; expected O(len)).
func (c *CentroidIndex) selectByAxis(perm []int, want, axis int) {
	key := func(i int) float64 { return c.points[perm[i]*c.dim+axis] }
	lo, hi := 0, len(perm)-1
	for lo < hi {
		// Median-of-three pivot: order lo, mid, hi, then use the middle.
		mid := lo + (hi-lo)/2
		if key(mid) < key(lo) {
			perm[mid], perm[lo] = perm[lo], perm[mid]
		}
		if key(hi) < key(lo) {
			perm[hi], perm[lo] = perm[lo], perm[hi]
		}
		if key(hi) < key(mid) {
			perm[hi], perm[mid] = perm[mid], perm[hi]
		}
		pivot := key(mid)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				perm[i], perm[j] = perm[j], perm[i]
				i++
				j--
			}
		}
		if want <= j {
			hi = j
		} else if want >= i {
			lo = i
		} else {
			return
		}
	}
}

// ctQuery is the running state of one Nearest search: the query and the
// lexicographic best so far.
type ctQuery struct {
	q     mat.Vector
	best  int
	bestD float64
}

// Nearest returns the id of the centroid nearest to q and its squared
// distance, breaking exact distance ties by the smaller id — the same
// answer a linear scan in id order gives. It returns id −1 on an empty
// index.
func (c *CentroidIndex) Nearest(q mat.Vector) (int, float64) {
	s := ctQuery{q: q, best: -1, bestD: math.Inf(1)}
	if c.root >= 0 {
		if c.effort != nil {
			c.effort.queries++
		}
		c.treeSearch(c.root, &s)
	}
	// Dirty points live outside the tree until the next rebuild. They are
	// the ids past the tree's, so their rows are the arena's tail; fold
	// them in with the flat argmin kernel under the same (distance, id)
	// lexicographic order as the leaf sweeps.
	s.best, s.bestD = kernel.ArgminFlatIDs(q, c.points[len(c.perm)*c.dim:], c.dirty, s.best, s.bestD)
	return s.best, s.bestD
}

// boxDist returns the squared distance from q to node ni's bounding box
// (zero inside the box) — a lower bound on the distance to any current
// point of the subtree. The loop runs straight through all dims without
// a branch: a box has lo ≤ hi, so at most one of lo−v and v−hi is
// positive, and their positive parts sum to exactly that one (or to 0
// inside the box). The sum is bit-identical to adding only the positive
// side, while the query's side of each face stays off the branch
// predictor, which mispredicts it for a query near the box.
func (c *CentroidIndex) boxDist(ni int, q mat.Vector) float64 {
	box := c.boxes[ni*2*c.dim:]
	lo, hi := box[:len(q)], box[c.dim:c.dim+len(q)]
	var s float64
	for j, v := range q {
		d := positivePart(lo[j]-v) + positivePart(v-hi[j])
		s += d * d
	}
	return s
}

// positivePart returns x when its sign bit is clear and +0 otherwise,
// without a branch: x's bits masked by its own sign bit, spread.
func positivePart(x float64) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}

// treeSearch descends the tree for the point minimizing the lexicographic
// (squared distance, id) key, nearer child first, pruning subtrees whose
// exact box lies farther than the best distance. Leaf coordinates are
// current, so candidate distances are exact. A subtree is still visited
// when its box bound exactly equals the best distance (≤, not <): an
// equal-distance lower-id point may sit exactly on the box face, and
// routing equivalence needs the lowest id.
func (c *CentroidIndex) treeSearch(ni int, s *ctQuery) {
	node := &c.nodes[ni]
	if node.left < 0 {
		if c.effort != nil {
			c.effort.leaves++
		}
		// One fused kernel sweep over the leaf's contiguous arena rows,
		// with perm carrying each row's centroid id.
		s.best, s.bestD = kernel.ArgminFlatIDs(s.q, c.flat[node.lo*c.dim:node.hi*c.dim], c.perm[node.lo:node.hi], s.best, s.bestD)
		return
	}
	if c.effort != nil {
		c.effort.boxes += 2
	}
	dl, dr := c.boxDist(node.left, s.q), c.boxDist(node.right, s.q)
	if dl <= dr {
		if dl <= s.bestD {
			c.treeSearch(node.left, s)
		}
		if dr <= s.bestD {
			c.treeSearch(node.right, s)
		}
	} else {
		if dr <= s.bestD {
			c.treeSearch(node.right, s)
		}
		if dl <= s.bestD {
			c.treeSearch(node.left, s)
		}
	}
}
