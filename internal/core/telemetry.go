package core

import (
	"condensation/internal/telemetry"
)

// Engine metric names. The stage timers share one histogram family,
// discriminated by the "stage" label; the neighbor_search series adds a
// "backend" label naming the search implementation that produced the
// timing. See DESIGN.md §7 for the full metric table.
const (
	metricStageSeconds  = "condense_stage_seconds"
	metricGroupsFormed  = "condense_groups_formed_total"
	metricLeftovers     = "condense_leftover_records_total"
	metricSplitEvents   = "condense_split_events_total"
	metricStreamRecords = "condense_stream_records_total"
	metricGroups        = "condense_groups"

	// Read-path cache effectiveness, shared by the engine snapshot cache
	// (cache="snapshot") and the server's artifact memos (cache="synthesis",
	// "stats", "audit", "checkpoint"): a hit served previously materialized
	// state, a miss rebuilt it from the live groups.
	metricReadCacheHits   = "condense_read_cache_hits_total"
	metricReadCacheMisses = "condense_read_cache_misses_total"
)

// engineMetrics holds the pre-resolved handles the engine hot paths write
// to. The zero value is the disabled state: enabled is false, every handle
// is nil, and (because telemetry handles are nil-safe) every recording
// call is a no-op. Sites that time a stage guard the time.Now() calls
// behind enabled so the disabled path pays only a branch.
type engineMetrics struct {
	enabled bool

	search *telemetry.Histogram // stage=neighbor_search, backend=<impl>
	stats  *telemetry.Histogram // stage=group_stats: moment accumulation
	eigen  *telemetry.Histogram // stage=eigen: eigendecomposition
	synth  *telemetry.Histogram // stage=synthesis: point regeneration
	split  *telemetry.Histogram // stage=split: SplitGroupStatistics

	groupsFormed  *telemetry.Counter
	leftovers     *telemetry.Counter
	splitEvents   *telemetry.Counter
	streamRecords *telemetry.Counter
	groups        *telemetry.Gauge

	snapHits   *telemetry.Counter // cache=snapshot: Condensation reused cached clones
	snapMisses *telemetry.Counter // cache=snapshot: Condensation recloned groups
}

// newEngineMetrics resolves the engine handles from reg (nil reg means
// disabled). Extra label pairs, when given, are stamped onto every series
// — the sharded engine passes shard="i" so each shard's counters stay
// separable; a single-shard engine passes none and registers the exact
// unlabeled series. The neighbor_search series is registered separately
// via withSearchBackend because its backend label depends on the caller.
func newEngineMetrics(reg *telemetry.Registry, labels ...string) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram(metricStageSeconds, nil, append([]string{"stage", name}, labels...)...)
	}
	return engineMetrics{
		enabled:       true,
		stats:         stage("group_stats"),
		eigen:         stage("eigen"),
		synth:         stage("synthesis"),
		split:         stage("split"),
		groupsFormed:  reg.Counter(metricGroupsFormed, labels...),
		leftovers:     reg.Counter(metricLeftovers, labels...),
		splitEvents:   reg.Counter(metricSplitEvents, labels...),
		streamRecords: reg.Counter(metricStreamRecords, labels...),
		groups:        reg.Gauge(metricGroups, labels...),
		snapHits:      reg.Counter(metricReadCacheHits, append([]string{"cache", "snapshot"}, labels...)...),
		snapMisses:    reg.Counter(metricReadCacheMisses, append([]string{"cache", "snapshot"}, labels...)...),
	}
}

// withSearchBackend attaches the neighbor_search stage series for the
// named backend (the static "quickselect" or "scan-sort", or the dynamic
// "centroid-kdtree"), carrying the same extra labels as the other engine
// series.
func (m *engineMetrics) withSearchBackend(reg *telemetry.Registry, backend string, labels ...string) {
	if reg == nil {
		return
	}
	m.search = reg.Histogram(metricStageSeconds, nil,
		append([]string{"stage", "neighbor_search", "backend", backend}, labels...)...)
}

// searchBackendLabel names the static search a backend actually runs, for
// the metric label: the full sort under SearchScanSort, the quickselect
// scan under every other value.
func searchBackendLabel(s NeighborSearch) string {
	if s == SearchScanSort {
		return s.String()
	}
	return "quickselect"
}

// WithTelemetry attaches a metrics registry to the Condenser: every
// condensation it constructs (static, dynamic, or via Anonymize) records
// stage timings and group counters into reg. A nil registry (the default)
// disables telemetry; the engine then pays only dead branches. Telemetry
// is observe-only — it never feeds the rng or any decision, so output is
// bit-identical with it on or off.
func WithTelemetry(reg *telemetry.Registry) CondenserOption {
	return func(c *Condenser) { c.tel = reg }
}
