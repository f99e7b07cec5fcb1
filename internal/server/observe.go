package server

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"condensation/internal/audit"
	"condensation/internal/telemetry"
)

// Observability metric names owned by the server: build identity, uptime,
// and the per-shard load family the watchdog's imbalance rule watches.
const (
	// MetricBuildInfo is a constant-1 gauge whose labels carry the build
	// identity (go version, VCS revision, shard count) — the Prometheus
	// idiom for joining dashboards on "which binary is this".
	MetricBuildInfo = "condense_build_info"
	// MetricUptime is the seconds since the server was constructed,
	// refreshed at every metrics read and recorder scrape.
	MetricUptime = "condense_uptime_seconds"
	// MetricShardRecords/Groups/Splits are per-shard live counts under
	// shard="i" labels, published only at NumShards ≥ 2 (matching the
	// engine's labeling convention) and refreshed by the collector.
	MetricShardRecords = "condense_shard_records"
	MetricShardGroups  = "condense_shard_groups"
	MetricShardSplits  = "condense_shard_splits"
	// MetricShardImbalance is max/mean of per-shard record counts — 1.0 is
	// perfectly balanced, N means one shard carries everything.
	MetricShardImbalance = "condense_shard_imbalance_ratio"
	// MetricReadCacheHits/Misses count generation-keyed read-cache
	// outcomes, one series per cache="..." kind: the engine's snapshot
	// cache plus the server's synthesis/stats/audit/checkpoint memos. A
	// hit served previously materialized state; a miss rebuilt it. The
	// names match the engine's (internal/core registers the snapshot
	// series), so the whole read path shares one family.
	MetricReadCacheHits   = "condense_read_cache_hits_total"
	MetricReadCacheMisses = "condense_read_cache_misses_total"
	// MetricReleaseMinGroupSize is the record count of the smallest group
	// in the installed release, 0 while it holds none: every artifact the
	// server serves derives from groups of at least this size, so it must
	// never read between 1 and k−1. It is set when a release is installed.
	MetricReleaseMinGroupSize = "condense_release_min_group_size"
)

// initObservability resolves the build-info, uptime, and per-shard load
// gauges once at construction (so the series exist before the first
// scrape) and hooks the server's collector into the flight recorder.
func (s *Server) initObservability() {
	rev := s.buildRevision
	if rev == "" {
		rev = "unknown"
	}
	s.reg.Gauge(MetricBuildInfo,
		"go_version", runtime.Version(),
		"vcs_revision", rev,
		"shards", strconv.Itoa(s.eng.NumShards()),
	).Set(1)
	s.uptime = s.reg.Gauge(MetricUptime)
	s.releaseMinSize = s.reg.Gauge(MetricReleaseMinGroupSize)
	if n := s.eng.NumShards(); n >= 2 {
		s.shardRecords = make([]*telemetry.Gauge, n)
		s.shardGroups = make([]*telemetry.Gauge, n)
		s.shardSplits = make([]*telemetry.Gauge, n)
		for i := 0; i < n; i++ {
			label := strconv.Itoa(i)
			s.shardRecords[i] = s.reg.Gauge(MetricShardRecords, "shard", label)
			s.shardGroups[i] = s.reg.Gauge(MetricShardGroups, "shard", label)
			s.shardSplits[i] = s.reg.Gauge(MetricShardSplits, "shard", label)
		}
		s.imbalance = s.reg.Gauge(MetricShardImbalance)
	}
	s.collect()
	s.rec.AddCollector(s.collect)
}

// collect refreshes the derived gauges — uptime and, on a sharded engine,
// the per-shard load family plus the max/mean imbalance ratio. It runs at
// every recorder scrape (on the scraper goroutine) and at every direct
// /metrics read, never on the ingest path.
func (s *Server) collect() {
	s.uptime.Set(s.uptimeSeconds())
	if s.shardRecords == nil {
		return
	}
	var total, max float64
	for i := range s.shardRecords {
		records, groups, splits := s.eng.ShardCounts(i)
		r := float64(records)
		s.shardRecords[i].Set(r)
		s.shardGroups[i].Set(float64(groups))
		s.shardSplits[i].Set(float64(splits))
		total += r
		if r > max {
			max = r
		}
	}
	ratio := 0.0
	if total > 0 {
		ratio = max / (total / float64(len(s.shardRecords)))
	}
	s.imbalance.Set(ratio)
}

// HealthRules is the standard watchdog rule set for a condensation server
// with the given k and shard count — the rules condenserd installs.
// Thresholds are intentionally generous: the watchdog is a trend detector
// for silent privacy/performance erosion, not a latency SLO enforcer.
func HealthRules(k, shards int) []telemetry.Rule {
	rules := []telemetry.Rule{
		telemetry.GaugeFloorRule("release_below_k", MetricReleaseMinGroupSize, float64(k),
			"a released group below k records breaks the paper's indistinguishability contract (0 means nothing is released yet)"),
		telemetry.TrendRule("sse_degradation", audit.MetricSSERatio, 12, 0.15, 0.02,
			"within-group SSE over total SSE trending up — groups are getting looser, eroding utility"),
		telemetry.LatencyRegressionRule("ingest_latency",
			`http_request_seconds{path="/v1/records"}`, 4,
			"windowed ingest p95 regressed vs the startup baseline in two consecutive trafficked windows"),
	}
	if shards >= 2 {
		rules = append(rules, telemetry.ImbalanceRule("shard_imbalance",
			MetricShardRecords, 2, 4, 1000,
			"max/mean of per-shard record counts — a hot shard serializes what sharding was meant to parallelize"))
	}
	return rules
}

// historyResponse is the GET /v1/history body: recorded windows oldest
// first, plus the ring geometry so clients know the retention horizon.
type historyResponse struct {
	Capacity int                `json:"capacity"`
	Recorded uint64             `json:"recorded"`
	Windows  []telemetry.Window `json:"windows"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		writeError(w, http.StatusNotFound,
			errors.New("flight recorder not enabled (start with -scrape-every > 0)"))
		return
	}
	last, err := parseLast(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var selectors []string
	if q := r.URL.Query().Get("series"); q != "" {
		// Validate the selectors against the live registry before filtering:
		// a selector matching no registered series used to silently return
		// empty windows, which reads exactly like "nothing was recorded".
		// Naming the unknown selectors instead turns a typo into a 400.
		selectors = strings.Split(q, ",")
		if unknown := s.unknownSelectors(selectors); len(unknown) > 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("unknown series selector(s): %s", strings.Join(unknown, ", ")))
			return
		}
	}
	resp := s.history(last)
	if selectors != nil {
		for i, win := range resp.Windows {
			resp.Windows[i] = telemetry.FilterWindow(win, selectors)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// history builds the history body over up to last windows (0 for all),
// for GET /v1/history and the diagnostics bundle.
func (s *Server) history(last int) historyResponse {
	return historyResponse{
		Capacity: s.rec.Capacity(),
		Recorded: s.rec.Seq(),
		Windows:  s.rec.Windows(last),
	}
}

// unknownSelectors returns the history selectors matching no series in the
// live registry, using exactly FilterWindow's match semantics: a selector
// matches a series whose id equals it (bare name or full name{labels}
// form) or whose id is the selector name followed by a label block.
func (s *Server) unknownSelectors(selectors []string) []string {
	snap := s.reg.Snapshot()
	var unknown []string
	for _, sel := range selectors {
		found := false
		for i := range snap {
			id := snap[i].ID()
			if id == sel || strings.HasPrefix(id, sel+"{") {
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, sel)
		}
	}
	return unknown
}

// healthRulesResponse is the GET /v1/health/rules body.
type healthRulesResponse struct {
	Status string                 `json:"status"`
	Rules  []telemetry.RuleStatus `json:"rules"`
}

func (s *Server) handleHealthRules(w http.ResponseWriter, r *http.Request) {
	if s.wd == nil {
		writeError(w, http.StatusNotFound,
			errors.New("health watchdog not enabled (start with -scrape-every > 0)"))
		return
	}
	overall, rules := s.wd.Status()
	writeJSON(w, http.StatusOK, healthRulesResponse{Status: overall.String(), Rules: rules})
}
