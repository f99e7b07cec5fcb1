package core

import (
	"context"

	"condensation/internal/mat"
	"condensation/internal/telemetry"
)

// Engine is the serving contract of a dynamic condenser: the full method
// set the HTTP server, the stream driver, and the daemon depend on. Its
// implementation is *Dynamic — N ≥ 1 shards behind deterministic
// record→shard routing, each guarded by its own lock, so every method is
// safe for concurrent use — which only the Condenser builds (Sharded,
// ShardedFrom, DynamicFrom, Bootstrap). The interface lets callers
// substitute a decorator (a timing or tracing wrapper) around it.
//
// The engine preserves the paper's invariants: groups hold between k and
// 2k−1 records in steady state, only aggregate statistics are retained,
// and the same seed and shard count reproduce the same condensed state
// bit for bit.
//
// Condensed state leaves the process only through Condensation: NewRelease
// gates a cut to its groups of at least k records, and every read — the
// snapshot, checkpoint, stats, audit, group diagnostics and routing
// dry-run — is derived from that Release.
type Engine interface {
	// Add routes one stream record to the group with the nearest centroid
	// (within the record's shard) and splits that group if it reaches 2k
	// records.
	Add(x mat.Vector) error
	// AddBatchContext ingests a batch through the high-throughput path,
	// bit-identical to an Add loop over the same records, with
	// cancellation at record boundaries.
	AddBatchContext(ctx context.Context, records []mat.Vector) error

	// Condensation snapshots the current groups as an immutable
	// Condensation (the per-shard group sets merged in shard order — a
	// stable, reproducible ordering).
	Condensation() *Condensation
	// K returns the indistinguishability level.
	K() int
	// Dim returns the attribute dimensionality.
	Dim() int
	// NumGroups returns the current number of groups across all shards.
	NumGroups() int
	// TotalCount returns the number of records condensed so far.
	TotalCount() int
	// Splits returns the number of group splits performed so far.
	Splits() int

	// NumShards returns the number of independent shards.
	NumShards() int
	// ShardCounts returns one shard's live record/group/split counts
	// without materializing its groups — cheap enough for periodic
	// scraping. It panics when i is out of range — shard indices come
	// from NumShards, not from untrusted input.
	ShardCounts(i int) (records, groups, splits int)

	// Generation returns the engine's mutation generation: a monotone
	// counter advanced on every state-changing apply (Add, each applied
	// record of AddBatchContext — splits ride along) and stable across pure
	// reads. Equal generations imply bit-identical condensed state, so the
	// value is a complete version key for read-side caches and HTTP ETags.
	// The read is one atomic load and never blocks on engine locks.
	Generation() uint64

	// SetTelemetry attaches a metrics registry (nil disables recording).
	SetTelemetry(reg *telemetry.Registry)
	// SetTracer attaches a span tracer (nil disables tracing).
	SetTracer(tr *telemetry.Tracer)
	// SetJournal attaches a group-lifecycle journal recording structured
	// events (foundings, splits with lineage, speculation fallbacks)
	// stamped with shard and generation. Nil (the default) disables
	// recording at one nil check per event site; the journal is
	// observe-only, so condensed output is bit-identical either way.
	SetJournal(j *telemetry.Journal)
}

var _ Engine = (*Dynamic)(nil)
