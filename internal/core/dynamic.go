package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// Dynamic maintains condensed groups over an incremental stream of records
// (DynamicGroupMaintenance, Figure 2 of the paper). Each arriving record is
// added to the group with the nearest centroid; as soon as a group reaches
// 2k records its statistics are split into two groups of k records each
// (SplitGroupStatistics), so every group holds between k and 2k−1 records
// in steady state. Only aggregate statistics are retained — never the raw
// stream records.
//
// The engine holds N ≥ 1 independent shards, each owning its groups, lock,
// centroid index, rng stream, and telemetry labels. Records are routed to
// shards deterministically by a stable hash of the record bytes, so the
// same stream always lands on the same shards in the same order and the
// condensed state is reproducible bit for bit at any fixed shard count.
// Sharding preserves the paper's privacy contract: each shard maintains
// the k ≤ n(G) ≤ 2k−1 group-size invariant independently, and the merged
// state is simply the union of per-shard group sets — exactly the
// composition argument behind Merge (and behind microaggregation
// partitioning generally), so every merged group still condenses at least
// k records. A 1-shard engine is the paper's algorithm unpartitioned.
//
// Dynamic is safe for concurrent use: reads take per-shard read locks and
// writes take only the locks of the shards their records hash to, so
// concurrent batches contend per shard instead of per engine. Batches
// ingest fastest through AddBatch, which speculatively routes records in
// parallel and applies them sequentially — bit-identical to an Add loop.
type Dynamic struct {
	k    int
	dim  int
	opts Options

	shards []*shard

	// met carries the unlabeled engine metrics attached to snapshots
	// (synthesis stage timings); tr is the span tracer.
	met engineMetrics
	tr  *telemetry.Tracer

	// gen is the mutation generation shared by every shard: each shard
	// bumps this one counter (not a private one), so a generation value
	// names a unique engine-wide state. Summing per-shard counters would
	// alias distinct states (shard A +2 vs A +1 and B +1 sum the same),
	// which would let a generation-keyed ETag serve stale bytes.
	gen atomic.Uint64
}

// newDynamic builds an engine with one shard per rng stream. The groups —
// owned by the engine from here on — are dealt round-robin, group j to
// shard j mod N: stable, so resuming at a fixed shard count is
// reproducible. A shard dealt no group starts empty. A group of 2k or
// more records is refused.
func newDynamic(dim, k int, opts Options, groups []*stats.Group, srcs []*rng.Source) (*Dynamic, error) {
	if dim < 1 {
		return nil, fmt.Errorf("core: dimension %d, must be ≥ 1", dim)
	}
	n := len(srcs)
	d := &Dynamic{k: k, dim: dim, opts: opts, shards: make([]*shard, n)}
	for i, r := range srcs {
		dealt := (len(groups) - i + n - 1) / n
		d.shards[i] = &shard{
			k: k, dim: dim, opts: opts, r: r,
			groups:    make([]*stats.Group, 0, dealt),
			centroids: make([]mat.Vector, 0, dealt),
			meta:      make([]*groupMeta, 0, dealt),
			// Shard i allocates stable group ids under base i<<48, so ids
			// from different shards never collide and a Release recovers
			// the owning shard from the id alone.
			idBase: uint64(i) << groupIDShardShift,
			index:  i,
			gen:    &d.gen,
		}
	}
	for j, g := range groups {
		// A group splits when an absorb brings it to exactly 2k records,
		// so one that already holds 2k or more would grow without bound.
		if g.N() >= 2*k {
			return nil, fmt.Errorf("core: initial group %d holds %d records, at least 2k = %d, and would never split", j, g.N(), 2*k)
		}
		sh := d.shards[j%n]
		m, err := g.Mean()
		if err != nil {
			return nil, fmt.Errorf("core: initial group %d: %w", j, err)
		}
		sh.groups = append(sh.groups, g)
		sh.centroids = append(sh.centroids, m)
		sh.total += g.N()
		sh.annotate(0, m)
	}
	for _, sh := range d.shards {
		idx, err := knn.NewCentroidIndex(dim, sh.centroids)
		if err != nil {
			return nil, fmt.Errorf("core: indexing shard %d centroids: %w", sh.index, err)
		}
		sh.router = idx
	}
	return d, nil
}

// eachShard runs f on every shard in shard order under that shard's write
// lock.
func (d *Dynamic) eachShard(f func(sh *shard)) {
	for _, sh := range d.shards {
		sh.mu.Lock()
		f(sh)
		sh.mu.Unlock()
	}
}

// sum adds f over the shards, each read under its read lock.
func (d *Dynamic) sum(f func(sh *shard) int) int {
	var n int
	for _, sh := range d.shards {
		sh.mu.RLock()
		n += f(sh)
		sh.mu.RUnlock()
	}
	return n
}

// FNV-1a parameters for the stable record→shard hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashFloat folds the 8 bytes of one float64 into an FNV-1a state.
func hashFloat(h uint64, v float64) uint64 {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= b & 0xff
		h *= fnvPrime64
		b >>= 8
	}
	return h
}

// recordShard routes a record to one of n shards: FNV-1a over the record's
// float64 bytes, reduced modulo n. The hash depends only on the record
// values, so routing is stable across runs, processes, and architectures,
// and a Release resolves the same shard ingestion does.
func recordShard(x mat.Vector, n int) int {
	if n == 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, v := range x {
		h = hashFloat(h, v)
	}
	return int(h % uint64(n))
}

// shardOf routes a record to its shard.
func (d *Dynamic) shardOf(x mat.Vector) int { return recordShard(x, len(d.shards)) }

// K returns the indistinguishability level.
func (d *Dynamic) K() int { return d.k }

// Dim returns the attribute dimensionality.
func (d *Dynamic) Dim() int { return d.dim }

// NumShards returns the number of independent shards.
func (d *Dynamic) NumShards() int { return len(d.shards) }

// NumGroups returns the group count summed over shards.
func (d *Dynamic) NumGroups() int { return d.sum(func(sh *shard) int { return len(sh.groups) }) }

// TotalCount returns the number of records condensed so far, summed over
// the shards' running counts (maintained on ingest, so frequent health
// and stats reads never scan the group lists).
func (d *Dynamic) TotalCount() int { return d.sum(func(sh *shard) int { return sh.total }) }

// Splits returns the number of group splits performed, summed over shards.
func (d *Dynamic) Splits() int { return d.sum(func(sh *shard) int { return sh.splits }) }

// MaxRecordMagnitude bounds the absolute value of every stream record
// value the engine admits. Finite values alone are not enough: the
// engine squares and sums them, and a sum that overflows to +Inf breaks
// routing (no centroid is nearer than +Inf) or turns the moments into
// NaN. With every value in [−B, B], a group of n ≤ 2k records (a group
// splits on reaching 2k) at dimension d keeps these quantities finite:
//
//   - a routing distance Σ_j (x_j − c_j)² ≤ 4·d·B²;
//   - the first-order sums |Fs_j| ≤ 2k·B, so Fs_i·Fs_j ≤ 4k²·B², and the
//     second-order sums |Sc_ij| ≤ 2k·B²;
//   - the covariance entries Sc_ij/n − Fs_i·Fs_j/n² ≤ 2B², so the Jacobi
//     sweep's squared off-diagonal and Frobenius sums are ≤ 4·d²·B⁴.
//
// The last is the tightest. B = 1e64 puts it at 4·d²·1e256, finite below
// math.MaxFloat64 ≈ 1.8e308 for every d < 6e25, and 4k²·B² is finite for
// every k < 6e89 — every engine that fits in memory, at any configured
// dim and k.
const MaxRecordMagnitude = 1e64

// CheckRecordMagnitude reports an error when a value of x lies beyond
// ±MaxRecordMagnitude. It assumes x is finite.
func CheckRecordMagnitude(x mat.Vector) error {
	for j, v := range x {
		if math.Abs(v) > MaxRecordMagnitude {
			return fmt.Errorf("core: record value %d (%g) is beyond ±%g", j, v, float64(MaxRecordMagnitude))
		}
	}
	return nil
}

// validateRecord rejects records an engine of dimension dim cannot
// condense, before any shard is touched.
func validateRecord(x mat.Vector, dim int) error {
	if len(x) != dim {
		return fmt.Errorf("core: stream record dimension %d, want %d", len(x), dim)
	}
	if !x.IsFinite() {
		return errors.New("core: stream record has non-finite values")
	}
	return CheckRecordMagnitude(x)
}

// Add routes one stream record to its shard and, under that shard's lock,
// to the group with the nearest centroid, splitting that group if it
// reaches 2k records.
func (d *Dynamic) Add(x mat.Vector) error {
	if err := validateRecord(x, d.dim); err != nil {
		return err
	}
	sh := d.shards[d.shardOf(x)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.add(x)
}

// AddBatch ingests a batch of records, producing the exact condensation
// an Add loop over the same records produces. See AddBatchContext.
func (d *Dynamic) AddBatch(records []mat.Vector) error {
	return d.AddBatchContext(context.Background(), records)
}

// AddBatchContext is the engine's high-throughput ingest path: the batch
// is validated up front — a malformed record rejects the batch before any
// record is admitted — then partitioned by the routing hash into
// per-shard sub-batches that preserve stream order, and the sub-batches
// are applied concurrently, each through its shard's speculative batch
// path under that shard's lock alone. Because routing depends only on
// record values and each shard sees its records in stream order, the
// result is bit-identical to a sequential Add loop over the same batch,
// at any concurrency.
//
// Cancellation is checked per shard at record boundaries; records applied
// before cancellation stay condensed. The error returned is the
// lowest-shard-index failure, so error reporting is deterministic too.
func (d *Dynamic) AddBatchContext(ctx context.Context, records []mat.Vector) error {
	for i, x := range records {
		if err := validateRecord(x, d.dim); err != nil {
			return fmt.Errorf("core: batch record %d: %w", i, err)
		}
	}
	if len(records) == 0 {
		return nil
	}
	if len(d.shards) == 1 {
		return d.shards[0].lockedAddBatch(ctx, records)
	}

	ctx, sp := d.tr.Start(ctx, "dynamic.fan_out")
	sp.SetAttrInt("records", len(records))
	sp.SetAttrInt("shards", len(d.shards))
	defer sp.End()

	// Partition into order-preserving per-shard sub-batches backed by one
	// allocation: count, carve, fill.
	ids := make([]int, len(records))
	counts := make([]int, len(d.shards))
	for i, x := range records {
		ids[i] = d.shardOf(x)
		counts[ids[i]]++
	}
	backing := make([]mat.Vector, 0, len(records))
	parts := make([][]mat.Vector, len(d.shards))
	off := 0
	for i, c := range counts {
		parts[i] = backing[off : off : off+c]
		off += c
	}
	for i, x := range records {
		parts[ids[i]] = append(parts[ids[i]], x)
	}

	errs := make([]error, len(d.shards))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []mat.Vector) {
			defer wg.Done()
			shCtx := ctx
			if sp != nil {
				var shSpan *telemetry.Span
				shCtx, shSpan = d.tr.Start(ctx, "dynamic.shard")
				shSpan.SetAttrInt("shard", i)
				shSpan.SetAttrInt("records", len(part))
				defer shSpan.End()
			}
			errs[i] = d.shards[i].lockedAddBatch(shCtx, part)
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Condensation snapshots the current groups as an immutable Condensation
// that can be synthesized from: every shard's groups concatenated in shard
// order — a stable ordering, so repeated snapshots of the same state
// serialize byte-identically. A single shard's snapshot is served straight
// from its generation-keyed cache, so repeated reads of unchanged state
// cost one slice header. Each shard's snapshot is internally consistent;
// under concurrent ingestion the merge is the union of per-shard
// snapshots, not a global point-in-time cut.
func (d *Dynamic) Condensation() *Condensation {
	if len(d.shards) == 1 {
		return d.Shard(0)
	}
	var groups []*stats.Group
	var meta []*groupMeta
	for i := range d.shards {
		cond := d.Shard(i)
		groups = append(groups, cond.groups...)
		meta = append(meta, cond.meta...)
	}
	merged := newCondensation(d.dim, d.k, d.opts, groups)
	merged.meta = meta
	merged.met = d.met
	merged.tr = d.tr
	return merged
}

// Shard snapshots one shard's groups. It panics when i is out of range.
func (d *Dynamic) Shard(i int) *Condensation {
	sh := d.shards[i]
	sh.mu.RLock()
	cond := sh.condensation()
	sh.mu.RUnlock()
	cond.met = d.met
	cond.tr = d.tr
	return cond
}

// ShardCounts returns shard i's live record/group/split counts under its
// read lock, without materializing groups — the accessor periodic load
// scrapes use.
func (d *Dynamic) ShardCounts(i int) (records, groups, splits int) {
	sh := d.shards[i]
	sh.mu.RLock()
	records, groups, splits = sh.total, len(sh.groups), sh.splits
	sh.mu.RUnlock()
	return records, groups, splits
}

// Generation returns the engine-wide mutation generation: the shared
// counter every shard advances on each applied record. It advances on
// every state-changing apply (Add, each applied record of AddBatch —
// group splits ride along) and is stable across pure reads, so equal
// generations imply bit-identical condensed state. The read is one atomic
// load, no shard locks.
func (d *Dynamic) Generation() uint64 { return d.gen.Load() }

// SetTelemetry attaches a metrics registry: Add and AddBatch then count
// stream records and split events, time the nearest-centroid routing
// (sampled one record in searchSampleEvery for Add, once per batch for
// AddBatch, so steady-state ingest pays no per-record clock reads) and
// the statistics splits, and keep a live group-count gauge. With more
// than one shard, every engine series carries a shard="i" label so
// per-shard ingest rates, group counts, and split events are separable; a
// single-shard engine registers the series unlabeled. A nil registry
// disables recording. Telemetry is observe-only and never touches the
// split-axis rng.
func (d *Dynamic) SetTelemetry(reg *telemetry.Registry) {
	d.met = newEngineMetrics(reg)
	d.eachShard(func(sh *shard) {
		if len(d.shards) == 1 {
			sh.setTelemetry(reg)
		} else {
			sh.setTelemetry(reg, "shard", strconv.Itoa(sh.index))
		}
	})
}

// SetTracer attaches a span tracer: Add records a sampled per-record
// ingest span (with a split child when the record triggers one), and
// AddBatch records a batch span with speculation/apply phase children —
// nested under the span in the caller's context, if any. A nil tracer
// (the default) disables tracing; a disabled or unsampled record costs one
// nil check and one atomic load, preserving the 0 allocs/record hot path.
// Tracing is observe-only and never touches the split-axis rng.
func (d *Dynamic) SetTracer(tr *telemetry.Tracer) {
	d.tr = tr
	d.eachShard(func(sh *shard) { sh.tr = tr })
}

// SetJournal attaches a group-lifecycle journal: group foundings, splits
// (with parent→child lineage) and speculation fallbacks are then recorded
// as structured events stamped with the emitting shard's index and the
// triggering mutation generation. A nil journal (the default) disables
// recording at one nil check per event site. The journal is observe-only
// — it never touches the rng stream or the group moments, so condensed
// output is bit-identical with it on or off.
func (d *Dynamic) SetJournal(j *telemetry.Journal) {
	d.eachShard(func(sh *shard) { sh.jr = j })
}

// SetParallelism bounds the total speculation workers across the engine:
// the budget (values < 1 mean runtime.NumCPU()) is divided evenly among
// the shards, each shard receiving at least one worker, since the shards
// themselves already run concurrently during AddBatch. Parallelism never
// changes output.
func (d *Dynamic) SetParallelism(p int) {
	per := max(par.Workers(p)/len(d.shards), 1)
	d.eachShard(func(sh *shard) { sh.parallelism = per })
}
