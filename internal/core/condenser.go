package core

import (
	"errors"
	"fmt"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// Condenser is the package's front door: one configured entry point for
// static condensation, dynamic stream maintenance, and data-set level
// anonymization. Build one with NewCondenser and functional options:
//
//	c, err := core.NewCondenser(25,
//		core.WithSeed(7),
//		core.WithSynthesis(core.SynthesisUniform),
//		core.WithNeighborSearch(core.SearchAuto),
//		core.WithParallelism(8))
//	cond, err := c.Static(records)
//
// The zero configuration — NewCondenser(k) with no options — reproduces
// the paper exactly: uniform synthesis, principal-axis splits, leftovers
// merged into their nearest groups, seed 1, and the exact quickselect
// neighbour search (which forms the same groups as the paper's full
// scan-and-sort whenever pairwise distances are distinct). Dynamic
// engines route each record to its shard by a hash of the whole record
// and, within the shard, through an exact centroid index that picks the
// group the paper's linear scan picks.
//
// Unless WithRandomSource overrides it, every call derives a fresh rng
// stream from the configured seed, so calls are independently reproducible
// and a Condenser may be shared between goroutines.
type Condenser struct {
	k       int
	seed    uint64
	source  *rng.Source // optional caller-managed stream
	opts    Options
	search  searchConfig
	mode    Mode
	initial float64
	tel     *telemetry.Registry // nil means telemetry disabled
	trace   *telemetry.Tracer   // nil means tracing disabled

	precision IndexPrecision // deprecated WithIndexPrecision; only Float64 is valid
}

// CondenserOption configures a Condenser.
type CondenserOption func(*Condenser)

// WithSeed sets the seed from which each call's rng stream is derived
// (default 1).
func WithSeed(seed uint64) CondenserOption {
	return func(c *Condenser) { c.seed = seed; c.source = nil }
}

// WithRandomSource makes every call draw from the given shared stream
// instead of re-deriving one from the seed. This is for callers weaving
// condensation into a larger deterministic experiment (r.Split() chains);
// it makes the Condenser stateful and not safe for concurrent use.
func WithRandomSource(r *rng.Source) CondenserOption {
	return func(c *Condenser) { c.source = r }
}

// WithSynthesis selects the regeneration distribution (default uniform,
// the paper's choice).
func WithSynthesis(s Synthesis) CondenserOption {
	return func(c *Condenser) { c.opts.Synthesis = s }
}

// WithSplitAxis selects the dynamic split direction (default principal,
// the paper's choice).
func WithSplitAxis(a SplitAxis) CondenserOption {
	return func(c *Condenser) { c.opts.SplitAxis = a }
}

// WithLeftover selects the static leftover policy (default nearest group,
// the paper's choice).
func WithLeftover(l Leftover) CondenserOption {
	return func(c *Condenser) { c.opts.Leftover = l }
}

// WithOptions replaces the whole option block at once — a bridge for
// callers that already hold an Options value.
func WithOptions(o Options) CondenserOption {
	return func(c *Condenser) { c.opts = o }
}

// WithNeighborSearch selects the static neighbour search (default
// SearchAuto, the quickselect scan; SearchScanSort is the full-sort
// reference). Dynamic routing always runs each shard's centroid index.
func WithNeighborSearch(s NeighborSearch) CondenserOption {
	return func(c *Condenser) { c.search.Search = s }
}

// WithParallelism bounds the worker goroutines of the static distance
// sweep and of synthesis from the condensations Static and Anonymize
// return; values < 1 (the default) mean runtime.NumCPU(). Dynamic ingest
// does not use it: each shard applies its records in order.
func WithParallelism(p int) CondenserOption {
	return func(c *Condenser) { c.search.Parallelism = p }
}

// WithMode selects the construction regime Anonymize uses (default
// static).
func WithMode(m Mode) CondenserOption {
	return func(c *Condenser) { c.mode = m }
}

// WithInitialFraction sets the fraction of records condensed statically up
// front in dynamic-mode Anonymize (default 0.25; values outside (0, 1]
// fall back to the default).
func WithInitialFraction(f float64) CondenserOption {
	return func(c *Condenser) { c.initial = f }
}

// WithTracer attaches a span tracer: static condensation, dynamic ingest,
// and synthesis then record sampled execution spans into its ring buffer.
// A nil tracer (the default) disables tracing. Tracing is observe-only —
// it never touches the rng stream, so output is bit-identical either way.
func WithTracer(tr *telemetry.Tracer) CondenserOption {
	return func(c *Condenser) { c.trace = tr }
}

// NewCondenser builds a Condenser with indistinguishability level k. The
// zero configuration reproduces the paper; see the type documentation.
func NewCondenser(k int, opts ...CondenserOption) (*Condenser, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: indistinguishability level k = %d, must be ≥ 1", k)
	}
	c := &Condenser{k: k, seed: 1}
	for _, opt := range opts {
		opt(c)
	}
	if err := c.opts.validate(); err != nil {
		return nil, err
	}
	if err := c.search.Search.validate(); err != nil {
		return nil, err
	}
	if err := c.precision.validate(); err != nil {
		return nil, err
	}
	if c.mode != ModeStatic && c.mode != ModeDynamic {
		return nil, fmt.Errorf("core: unknown mode %d", int(c.mode))
	}
	return c, nil
}

// K returns the configured indistinguishability level.
func (c *Condenser) K() int { return c.k }

// Options returns the configured semantic options.
func (c *Condenser) Options() Options { return c.opts }

// rng returns the stream a call should draw from: the shared source when
// one was injected, otherwise a fresh stream derived from the seed.
func (c *Condenser) rng() *rng.Source {
	if c.source != nil {
		return c.source
	}
	return rng.New(c.seed)
}

// Static runs the CreateCondensedGroups algorithm of Figure 1 on the full
// set of records: while at least k records remain, sample one uniformly at
// random, gather its k−1 nearest remaining neighbours into a group, record
// the group's aggregate statistics, and delete the group's records.
// Remaining records (between 1 and k−1 of them) are folded into the group
// with the nearest centroid, so a few groups may hold more than k records.
// Records must be finite and within ±MaxRecordMagnitude, the bound the
// stream enforces.
//
// The records slice is not modified. k = 1 produces one group per record,
// in which case synthesis reproduces each record exactly — the paper's
// group-size-1 anchor where static condensation equals the original data.
func (c *Condenser) Static(records []mat.Vector) (*Condensation, error) {
	cond, _, err := c.staticCondense(records, c.rng())
	return cond, err
}

// StaticWithMembers is Static, additionally reporting which original
// records each group condensed: members[g] lists the record indices of
// group g. The membership map is exactly what a condensation deployment
// must *not* publish; it is exposed for privacy evaluation (re-
// identification attacks need the ground truth) and for tests.
func (c *Condenser) StaticWithMembers(records []mat.Vector) (*Condensation, [][]int, error) {
	return c.staticCondense(records, c.rng())
}

// DynamicFrom returns a one-shard dynamic condenser seeded from an
// existing condensation — the paper's H = CreateCondensedGroups(k, D)
// initialization: ShardedFrom(initial, 1).
func (c *Condenser) DynamicFrom(initial *Condensation) (*Dynamic, error) {
	return c.ShardedFrom(initial, 1)
}

// Sharded returns an empty dynamic condenser with the given number of
// independent shards over records of the given dimensionality. Shard 0
// draws from the Condenser's master rng stream itself — so a 1-shard
// engine is the paper's algorithm unpartitioned — and every further shard
// draws from an independent child stream derived from it at construction.
// With no initial database the first arriving record founds the first
// group, and until a group reaches k records no cut can be released.
func (c *Condenser) Sharded(dim, shards int) (*Dynamic, error) {
	srcs, err := shardSources(c, shards)
	if err != nil {
		return nil, err
	}
	return c.wire(newDynamic(dim, c.k, c.opts, nil, srcs))
}

// ShardedFrom returns a dynamic condenser with the given number of shards
// seeded from an existing condensation: the initial groups are copied
// once and dealt round-robin across the shards (group j to shard j mod N —
// stable, so resuming at a fixed shard count is reproducible). The
// initial condensation's dimensionality is used and its options are
// superseded by the Condenser's; its k must equal the Condenser's, since
// its groups were formed to that level.
func (c *Condenser) ShardedFrom(initial *Condensation, shards int) (*Dynamic, error) {
	if initial == nil {
		return nil, errors.New("core: nil initial condensation")
	}
	if initial.k != c.k {
		return nil, fmt.Errorf("core: initial condensation has k = %d, condenser has k = %d", initial.k, c.k)
	}
	srcs, err := shardSources(c, shards)
	if err != nil {
		return nil, err
	}
	return c.wire(newDynamic(initial.dim, c.k, c.opts, initial.Groups(), srcs))
}

// Bootstrap condenses an initial database statically and returns a
// one-shard dynamic condenser maintaining it — the paper's full dynamic
// setting in one call.
func (c *Condenser) Bootstrap(initial []mat.Vector) (*Dynamic, error) {
	return c.bootstrap(initial, c.rng())
}

// bootstrap is Bootstrap drawing from r: the static pass and the engine
// maintaining its groups share the one stream.
func (c *Condenser) bootstrap(initial []mat.Vector, r *rng.Source) (*Dynamic, error) {
	cond, _, err := c.staticCondense(initial, r)
	if err != nil {
		return nil, err
	}
	// cond never leaves this call, so the engine takes its groups as-is.
	return c.wire(newDynamic(cond.dim, c.k, c.opts, cond.groups, []*rng.Source{r}))
}

// shardSources derives one rng stream per shard: shard 0 takes the master
// stream, shards 1..N−1 take children split from it before any record is
// ingested. Derivation happens entirely at construction, so each shard's
// stream depends only on the master seed and the shard count.
func shardSources(c *Condenser, shards int) ([]*rng.Source, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: shard count %d, must be ≥ 1", shards)
	}
	srcs := make([]*rng.Source, shards)
	srcs[0] = c.rng()
	for i := 1; i < shards; i++ {
		srcs[i] = srcs[0].Split()
	}
	return srcs, nil
}

// wire finishes an engine the Condenser built: it attaches the
// Condenser's telemetry and tracer.
func (c *Condenser) wire(d *Dynamic, err error) (*Dynamic, error) {
	if err != nil {
		return nil, err
	}
	d.SetTelemetry(c.tel)
	d.SetTracer(c.trace)
	return d, nil
}
