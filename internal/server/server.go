// Package server exposes a dynamic condensation over HTTP: records are
// POSTed as they are collected, only the per-group aggregate statistics
// are retained in memory, and anonymized snapshots can be synthesized at
// any time. It is the deployment shape the paper's dynamic setting
// implies — a data-collection endpoint that can publish privacy-preserving
// data continuously — built on net/http and the core package.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/records    {"records": [[...], ...]}     add stream records
//	GET  /v1/snapshot   ?seed=N                       synthesize anonymized records
//	GET  /v1/stats                                    condensation statistics
//	GET  /v1/audit                                    anonymization-quality report
//	GET  /v1/checkpoint                               binary condensation state (octet-stream)
//	GET  /v1/history    ?last=N&series=a,b            flight-recorder windows (when recording on)
//	GET  /v1/health/rules                             watchdog rule states (when watchdog on)
//	GET  /v1/events     ?last=N&type=a,b              release ledger (when journal on)
//	GET  /v1/groups                                   per-group lifecycle summaries
//	GET  /v1/groups/{id}                              one group's diagnostics detail
//	POST /v1/explain    {"record": [...], "top": M}   routing dry-run, side-effect-free
//	GET  /healthz                                     build info, uptime, live counts, health state
//	GET  /metrics                                     Prometheus text exposition
//	GET  /debug/trace   ?last=N                       Chrome trace-event JSON (when tracing on)
//	GET  /debug/bundle                                one-shot diagnostics tar.gz
//
// Every endpoint runs behind telemetry middleware recording request
// counts, an in-flight gauge, status-class counters, and a latency
// histogram per endpoint, and behind request-ID middleware: a client's
// X-Request-ID is accepted (or one is minted), echoed on the response,
// attached to trace spans, and stamped into error envelopes. Error
// responses use one JSON envelope: {"error": "...", "request_id": "..."}.
//
// Snapshot, stats, audit, checkpoint, both group routes and explain are
// derived from one k-gated core.Release per engine generation
// (release.go): no group of fewer than k records is ever served.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condensation/internal/audit"
	"condensation/internal/core"
	"condensation/internal/telemetry"
)

// Config configures a condensation server.
type Config struct {
	// Engine is the condenser engine to serve; required. Build it with
	// the core.Condenser (Sharded for an empty start, ShardedFrom to
	// resume from a checkpoint). The server attaches Telemetry and Tracer
	// to it, replacing whatever the engine was built with.
	Engine core.Engine
	// MaxBatch bounds the records accepted per POST (default 10000).
	MaxBatch int
	// Telemetry receives the server's HTTP metrics and, through the
	// dynamic condenser, the engine's stage timers and group counters. Nil
	// means the server creates a private registry, so /metrics always
	// serves.
	Telemetry *telemetry.Registry
	// Logger receives structured request-independent events (startup,
	// ingest summaries). Nil means logging is off.
	Logger *slog.Logger
	// Tracer optionally records sampled request/ingest spans, served as
	// Chrome trace-event JSON from /debug/trace. Nil disables tracing (and
	// the /debug/trace endpoint answers 404).
	Tracer *telemetry.Tracer
	// AuditSeed has no effect: the server audit is a function of the
	// release alone and draws no synthesis.
	//
	// Deprecated: ignored; kept only because the benchmark rig still sets
	// it, and removed with that.
	AuditSeed uint64
	// Recorder optionally attaches a flight recorder (built over the same
	// registry as Telemetry). The server serves its windows from
	// /v1/history and registers a collector refreshing uptime and per-shard
	// load gauges at each scrape; the caller owns the scrape loop. Nil
	// disables the endpoint (404), like a nil Tracer does /debug/trace.
	Recorder *telemetry.Recorder
	// Watchdog optionally attaches a health watchdog (evaluated by the
	// caller's scrape loop). The server serves its rule states from
	// /v1/health/rules and folds its overall severity into /healthz. Nil
	// disables the endpoint and leaves /healthz always "ok".
	Watchdog *telemetry.Watchdog
	// Journal optionally attaches the release ledger: each release install
	// records the group ids it adds and drops and whether it replaced
	// served artifacts, the watchdog records rule transitions, and the
	// server serves the ring from /v1/events. Every entry carries the
	// generation of an installed release. Nil disables the endpoint (404)
	// and all recording, like a nil Tracer does /debug/trace.
	Journal *telemetry.Journal
}

// Server is a thread-safe condensation HTTP service over a core.Engine.
// The engine locks itself per shard, so the server holds no lock around
// engine calls: reads never queue behind each other, only behind an
// in-flight batch on the same shard, and concurrent batches contend per
// shard, not per server.
type Server struct {
	eng      core.Engine
	k        int
	dim      int
	maxBatch int
	mux      *http.ServeMux
	reg      *telemetry.Registry
	log      *slog.Logger
	start    time.Time
	inFlight *telemetry.Gauge
	tr       *telemetry.Tracer
	rec      *telemetry.Recorder
	wd       *telemetry.Watchdog
	jr       *telemetry.Journal

	// Request-ID minting state: a per-process prefix plus an atomic
	// counter, so a minted id is one AppendUint into a stack buffer — the
	// read hot path budgets two allocations for the whole middleware (the
	// id string and its header slice).
	reqPrefix string
	reqSeq    atomic.Uint64

	// Derived gauges refreshed by collect(): uptime always; the per-shard
	// load family and imbalance ratio only at NumShards ≥ 2.
	uptime       *telemetry.Gauge
	shardRecords []*telemetry.Gauge
	shardGroups  []*telemetry.Gauge
	shardSplits  []*telemetry.Gauge
	imbalance    *telemetry.Gauge
	// releaseMinSize is the installed release's smallest group size, set
	// by install.
	releaseMinSize *telemetry.Gauge

	// cur is the current release: the k-gated cut every read artifact is
	// derived from (see release.go), swapped only under installMu. shards
	// is the engine's fixed shard count. The cm* pairs count hit/miss
	// outcomes per artifact kind.
	cur          atomic.Pointer[release]
	installMu    sync.Mutex
	shards       int
	cmSnapshot   cacheMetrics
	cmStats      cacheMetrics
	cmAudit      cacheMetrics
	cmCheckpoint cacheMetrics

	// Build identity, read once at construction (ReadBuildInfo walks the
	// embedded module table — too expensive to redo per /healthz probe).
	buildRevision, buildTime string
}

// routes is the server's route table: every endpoint New registers, with
// the one method it serves. The exact /v1/groups path lists all groups;
// the /v1/groups/ subtree serves one group by id. Each row is one pattern,
// so metric cardinality stays bounded by the table, never by how many
// group ids clients probe.
var routes = []struct {
	method  string
	path    string
	handler func(*Server, http.ResponseWriter, *http.Request)
}{
	{http.MethodPost, "/v1/records", (*Server).handleRecords},
	{http.MethodGet, "/v1/snapshot", (*Server).handleSnapshot},
	{http.MethodGet, "/v1/stats", (*Server).handleStats},
	{http.MethodGet, "/v1/audit", (*Server).handleAudit},
	{http.MethodGet, "/v1/checkpoint", (*Server).handleCheckpoint},
	{http.MethodGet, "/v1/history", (*Server).handleHistory},
	{http.MethodGet, "/v1/health/rules", (*Server).handleHealthRules},
	{http.MethodGet, "/v1/events", (*Server).handleEvents},
	{http.MethodGet, "/v1/groups", (*Server).handleGroups},
	{http.MethodGet, "/v1/groups/", (*Server).handleGroupByID},
	{http.MethodPost, "/v1/explain", (*Server).handleExplain},
	{http.MethodGet, "/healthz", (*Server).handleHealth},
	{http.MethodGet, "/metrics", (*Server).handleMetrics},
	{http.MethodGet, "/debug/trace", (*Server).handleTrace},
	{http.MethodGet, "/debug/bundle", (*Server).handleBundle},
}

// New builds a server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	eng := cfg.Engine
	if eng == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 10000
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	eng.SetTelemetry(reg)
	eng.SetTracer(cfg.Tracer)
	s := &Server{
		eng:      eng,
		k:        eng.K(),
		dim:      eng.Dim(),
		maxBatch: cfg.MaxBatch,
		mux:      http.NewServeMux(),
		reg:      reg,
		log:      cfg.Logger,
		start:    time.Now(),
		inFlight: reg.Gauge("http_in_flight"),
		tr:       cfg.Tracer,
		rec:      cfg.Recorder,
		wd:       cfg.Watchdog,
		jr:       cfg.Journal,
		shards:   eng.NumShards(),
	}
	s.reqPrefix = "r" + strconv.FormatInt(time.Now().UnixNano(), 36) + "-"
	// The watchdog stamps its rule-transition journal events with the
	// installed release's generation, like every other journal entry.
	s.wd.SetJournal(cfg.Journal, s.installedGeneration)
	s.buildRevision, s.buildTime = buildVCS()
	s.cmSnapshot = newCacheMetrics(reg, "synthesis")
	s.cmStats = newCacheMetrics(reg, "stats")
	s.cmAudit = newCacheMetrics(reg, "audit")
	s.cmCheckpoint = newCacheMetrics(reg, "checkpoint")
	if s.log == nil {
		s.log = telemetry.Nop()
	}
	s.initObservability()
	for _, rt := range routes {
		s.route(rt.method, rt.path, rt.handler)
	}
	return s, nil
}

// Engine returns the engine the server serves — for wiring the same
// engine into other drivers (a stream feeder, a background auditor). The
// engine locks itself, so such drivers may run concurrently with the
// server.
func (s *Server) Engine() core.Engine { return s.eng }

// route registers a handler behind the telemetry middleware: per-endpoint
// request counter by status class, latency histogram, and the shared
// in-flight gauge. The path label is the registered pattern, so metric
// cardinality is bounded by the route table, never by client input. A
// request with any other method than the route's is answered 405 before
// the handler runs.
func (s *Server) route(method, path string, h func(*Server, http.ResponseWriter, *http.Request)) {
	wrongMethod := errors.New(method + " required")
	requests2xx := s.reg.Counter("http_requests_total", "path", path, "code", "2xx")
	requests4xx := s.reg.Counter("http_requests_total", "path", path, "code", "4xx")
	requests5xx := s.reg.Counter("http_requests_total", "path", path, "code", "5xx")
	latency := s.reg.Histogram("http_request_seconds", nil, "path", path)
	spanName := "http " + path
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Request-ID correlation: accept the client's X-Request-ID or mint
		// one, and echo it on the response up front. Handlers, error
		// envelopes, and log lines read it back from the response header —
		// never from a request context, which would cost a context and
		// request copy on the read hot path. The header map is indexed by
		// its canonical key directly: net/http canonicalizes incoming keys,
		// and Header.Get would allocate canonicalizing "X-Request-ID" on
		// every request.
		var id string
		if v := r.Header["X-Request-Id"]; len(v) > 0 {
			id = v[0]
		}
		if !validRequestID(id) {
			id = s.mintRequestID()
		}
		sw.Header()["X-Request-Id"] = []string{id}
		// The request span is the root of this request's trace tree; the
		// span-carrying context flows into the handler so engine spans
		// (dynamic.add_batch and children) nest under it.
		ctx, span := s.tr.Start(r.Context(), spanName)
		if span != nil {
			span.SetAttr("request_id", id)
			r = r.WithContext(ctx)
		}
		// Deferred so a panicking handler (recovered per-connection by
		// net/http) still decrements the in-flight gauge and is counted.
		defer func() {
			s.inFlight.Add(-1)
			latency.ObserveSince(t0)
			span.SetAttrInt("status", sw.status)
			span.End()
			switch {
			case sw.status >= 500:
				requests5xx.Inc()
			case sw.status >= 400:
				requests4xx.Inc()
			default:
				requests2xx.Inc()
			}
		}()
		if r.Method != method {
			sw.Header().Set("Allow", method)
			writeError(sw, http.StatusMethodNotAllowed, wrongMethod)
			return
		}
		h(s, sw, r)
	})
}

// validRequestID reports whether a client-supplied X-Request-ID is safe to
// echo: non-empty, bounded, and visible ASCII only (no header injection,
// no control characters in log lines).
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return false
		}
	}
	return true
}

// mintRequestID generates a process-unique request id: the per-process
// prefix plus an atomic sequence number, rendered into a stack buffer so
// minting costs exactly one allocation (the returned string).
func (s *Server) mintRequestID() string {
	var buf [32]byte
	b := append(buf[:0], s.reqPrefix...)
	b = strconv.AppendUint(b, s.reqSeq.Add(1), 36)
	return string(b)
}

// requestID reads back the id the middleware stamped on this response.
func requestID(w http.ResponseWriter) string {
	if v := w.Header()["X-Request-Id"]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// recordsResponse confirms ingestion: the records accepted by this
// request plus the engine's cumulative group and split counts after it.
type recordsResponse struct {
	Accepted int `json:"accepted"`
	Groups   int `json:"groups"`
	Splits   int `json:"splits"`
}

// errorResponse is the uniform error body. RequestID carries the
// correlation id the middleware stamped on the response, so a client
// reporting a failure can quote the id a trace span or log line carries.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// Shared Content-Type header values for prepared-body responses. Header
// maps hold these slices directly (keys are already in canonical form),
// so the hot path writes headers without allocating; nothing may mutate
// them.
var (
	headerJSON  = []string{"application/json"}
	headerOctet = []string{"application/octet-stream"}
)

// writePrepared serves a prepared body: headers come from the values
// rendered at build time, the parts are written as-is, in order. With
// Content-Length declared up front, a mid-stream write failure reaches the
// client as a detectably short body, never a silently truncated stream.
func writePrepared(w http.ResponseWriter, contentType []string, b *respBody) {
	h := w.Header()
	h["Content-Type"] = contentType
	h["Content-Length"] = b.cl
	for _, p := range b.parts {
		if _, err := w.Write(p); err != nil {
			return
		}
	}
}

// queryParams parses the URL query once per request, skipping the parse
// entirely for the common bare-path poll. The nil url.Values Get/Has
// behave as "absent", which is exactly right.
func queryParams(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

// parseLast reads the ?last= bound of a ring endpoint: absent means 0,
// every buffered entry; anything but a non-negative integer is refused.
func parseLast(q url.Values) (int, error) {
	v := q.Get("last")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad last %q", v)
	}
	return n, nil
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding of our own response structs cannot fail.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: requestID(w)})
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	body, status, err := readBody(w, r, recordsBodyLimit(s.maxBatch, s.dim))
	if err != nil {
		writeError(w, status, err)
		return
	}
	// Validate the whole batch before admitting any of it, so a bad row
	// cannot leave a half-ingested batch.
	records, status, err := decodeRecords(body, s.dim, s.maxBatch)
	if err != nil {
		writeError(w, status, err)
		return
	}

	// Ingest through the batch engine: each shard applies its records in
	// order under one lock acquisition, bit-identical to a record-by-record
	// Add loop. The request context bounds the batch: if the client
	// disconnects or the deadline passes mid-batch, ingestion stops at a
	// record boundary instead of holding the locks for the full batch.
	t0 := time.Now()
	err = s.eng.AddBatchContext(r.Context(), records)
	groups := s.eng.NumGroups()
	splits := s.eng.Splits()
	// LogAttrs, unlike Debug's ...any, boxes nothing while debug is off.
	s.log.LogAttrs(r.Context(), slog.LevelDebug, "ingested batch",
		slog.String("request_id", requestID(w)),
		slog.Int("records", len(records)),
		slog.Int("groups", groups),
		slog.Duration("elapsed", time.Since(t0)),
		slog.Any("err", err))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// 499-style: the client is gone or out of time; the write is
			// best-effort.
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, recordsResponse{Accepted: len(records), Groups: groups, Splits: splits})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seed := uint64(1)
	if q := queryParams(r).Get("seed"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", q))
			return
		}
		seed = v
	}
	body, err := s.release().snapshot(seed, s.cmSnapshot)
	if err != nil {
		if errors.Is(err, errNoRecords) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writePrepared(w, headerJSON, body)
}

// errNoRecords is the snapshot refusal of a release that holds no group,
// mapped to 409: nothing has reached k records yet.
var errNoRecords = errors.New("no group of k records to release yet")

// statsResponse summarizes the current release: the groups and records it
// holds, and the records it withholds in groups below k. Splits is the
// split count of the engine cut the release was taken from. ByShard is
// present only when the request asked for the per-shard breakdown.
type statsResponse struct {
	Dim             int          `json:"dim"`
	K               int          `json:"k"`
	Shards          int          `json:"shards"`
	Groups          int          `json:"groups"`
	Records         int          `json:"records"`
	WithheldRecords int          `json:"withheld_records"`
	Splits          int          `json:"splits"`
	MinGroupSize    int          `json:"min_group_size"`
	MaxGroupSize    int          `json:"max_group_size"`
	AvgGroupSize    float64      `json:"avg_group_size"`
	KSatisfied      bool         `json:"k_satisfied"`
	ByShard         []shardStats `json:"by_shard,omitempty"`
}

// shardStats is one shard's block of the per-shard breakdown.
type shardStats struct {
	Shard        int     `json:"shard"`
	Groups       int     `json:"groups"`
	Records      int     `json:"records"`
	MinGroupSize int     `json:"min_group_size"`
	MaxGroupSize int     `json:"max_group_size"`
	AvgGroupSize float64 `json:"avg_group_size"`
	KSatisfied   bool    `json:"k_satisfied"`
}

// shardParam parses the optional ?shard=i selector: (index, true, nil)
// when a valid shard was requested, (0, false, nil) when absent, an error
// when malformed or out of range.
func (s *Server) shardParam(q url.Values) (int, bool, error) {
	v := q.Get("shard")
	if v == "" {
		return 0, false, nil
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("bad shard %q", v)
	}
	if i < 0 || i >= s.shards {
		return 0, false, fmt.Errorf("shard %d out of range [0,%d)", i, s.shards)
	}
	return i, true, nil
}

// byShardParam reports whether the request asked for the per-shard
// breakdown (?by_shard, ?by_shard=1, ?by_shard=true).
func byShardParam(q url.Values) bool {
	if !q.Has("by_shard") {
		return false
	}
	v := q.Get("by_shard")
	return v == "" || v == "1" || v == "true"
}

// shardStatsFromSizes summarizes one shard of a release from its group
// sizes alone: no group statistics are read. An empty shard reports
// KSatisfied: it releases no records whose indistinguishability could be
// violated.
func shardStatsFromSizes(i, k int, sizes []int) shardStats {
	st := shardStats{Shard: i, Groups: len(sizes), KSatisfied: true}
	if len(sizes) == 0 {
		return st
	}
	st.MinGroupSize = sizes[0]
	for _, n := range sizes {
		st.Records += n
		st.MinGroupSize = min(st.MinGroupSize, n)
		st.MaxGroupSize = max(st.MaxGroupSize, n)
	}
	st.AvgGroupSize = float64(st.Records) / float64(len(sizes))
	st.KSatisfied = st.MinGroupSize >= k
	return st
}

// stats returns the release's encoded /v1/stats body: merged, optionally
// with the per-shard breakdown.
func (s *Server) stats(r *release, byShard bool) (*respBody, error) {
	slot := &r.stats[0]
	if byShard {
		slot = &r.stats[1]
	}
	return memo(r, slot, s.cmStats, func() (*respBody, error) {
		_, withheld := r.Withheld()
		all := shardStatsFromSizes(0, s.k, r.Sizes())
		resp := statsResponse{
			Dim:             s.dim,
			K:               s.k,
			Shards:          s.shards,
			Groups:          all.Groups,
			Records:         all.Records,
			WithheldRecords: withheld,
			Splits:          r.Splits(),
			MinGroupSize:    all.MinGroupSize,
			MaxGroupSize:    all.MaxGroupSize,
			AvgGroupSize:    all.AvgGroupSize,
			KSatisfied:      all.Groups > 0 && all.KSatisfied,
		}
		for i := 0; byShard && i < s.shards; i++ {
			resp.ByShard = append(resp.ByShard, shardStatsFromSizes(i, s.k, r.ShardSizes(i)))
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			return nil, err
		}
		return newRespBody(buf.Bytes()), nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	q := queryParams(r)
	shard, hasShard, err := s.shardParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rel := s.release()
	if hasShard {
		// One shard's view alone, for per-shard dashboards and smoke
		// checks — cheap enough to summarize on every request.
		writeJSON(w, http.StatusOK, shardStatsFromSizes(shard, s.k, rel.ShardSizes(shard)))
		return
	}
	body, err := s.stats(rel, byShardParam(q))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writePrepared(w, headerJSON, body)
}

// checkpoint returns the release's prepared checkpoint: the released
// groups only, stamped with the generation's ETag when the release is
// stable.
func (s *Server) checkpoint(r *release) (*respBody, error) {
	return memo(r, &r.checkpoint, s.cmCheckpoint, func() (*respBody, error) {
		var buf bytes.Buffer
		if _, err := r.Condensation().WriteTo(&buf); err != nil {
			return nil, err
		}
		if r.stable {
			return newCheckpointBody(buf.Bytes(), r.Generation()), nil
		}
		return newRespBody(buf.Bytes()), nil
	})
}

// etagMatch reports whether an If-None-Match header matches the given
// entity tag, per RFC 9110 §13.1.2: "*" matches any representation, the
// field is a comma-separated list, and comparison is weak — a W/ prefix
// on either side is ignored, which is what If-None-Match specifies.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	body, err := s.checkpoint(s.release())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if body.etag != "" {
		// The generation names this exact byte stream, so it is a valid
		// strong ETag: replica-style pollers send it back and pay one
		// header round-trip while the state is unchanged. "Etag" is the
		// canonical form net/http uses for this header.
		w.Header()["Etag"] = body.etagH
		if etagMatch(r.Header.Get("If-None-Match"), body.etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	writePrepared(w, headerOctet, body)
}

// healthResponse is the GET /healthz body: build identity plus live
// condensation counts, so probes and humans see the same picture.
type healthResponse struct {
	Status        string  `json:"status"`
	GoVersion     string  `json:"go_version"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Dim           int     `json:"dim"`
	K             int     `json:"k"`
	Shards        int     `json:"shards"`
	Groups        int     `json:"groups"`
	Records       int     `json:"records"`
	// Generation is the engine's mutation generation — the version key
	// behind the checkpoint ETag, exposed so replicas can cheaply probe
	// "did anything change" before fetching.
	Generation uint64 `json:"generation"`
}

// buildVCS reads the VCS revision and commit time stamped into the binary
// by the Go toolchain, when present (test binaries and plain `go run`
// builds may not carry them).
func buildVCS() (revision, vcsTime string) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			revision = kv.Value
		case "vcs.time":
			vcsTime = kv.Value
		}
	}
	return revision, vcsTime
}

// healthSnapshot assembles the /healthz body and its HTTP status — shared
// by the probe handler and the diagnostics bundle.
func (s *Server) healthSnapshot() (healthResponse, int) {
	groups := s.eng.NumGroups()
	records := s.eng.TotalCount()
	// The watchdog's worst rule state becomes the probe answer: degraded
	// stays 200 (the service works, someone should look), failing turns
	// 503 so orchestrators stop routing to it.
	sev := s.wd.State()
	status := http.StatusOK
	if sev == telemetry.SevFailing {
		status = http.StatusServiceUnavailable
	}
	return healthResponse{
		Status:        sev.String(),
		GoVersion:     runtime.Version(),
		VCSRevision:   s.buildRevision,
		VCSTime:       s.buildTime,
		UptimeSeconds: s.uptimeSeconds(),
		Dim:           s.dim,
		K:             s.k,
		Shards:        s.eng.NumShards(),
		Groups:        groups,
		Records:       records,
		Generation:    s.eng.Generation(),
	}, status
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp, status := s.healthSnapshot()
	writeJSON(w, status, resp)
}

// uptimeSeconds is the seconds since construction — the value /healthz
// reports and collect mirrors into the condense_uptime_seconds gauge.
func (s *Server) uptimeSeconds() float64 { return time.Since(s.start).Seconds() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh derived gauges so a direct Prometheus scrape (no flight
	// recorder running) still sees live uptime and shard loads.
	s.collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// Audit runs one anonymization-quality pass over the current release and
// publishes the result into the server's metrics registry, so /v1/audit
// and /metrics always agree. It is what the /v1/audit handler and
// condenserd's background auditor both call. The report is memoized on the
// release, so a periodic auditor over an idle engine replays it; the
// publish still runs per call, preserving the watchdog's view of audit
// cadence.
func (s *Server) Audit() (*audit.Report, error) {
	return s.publishAudit(s.release())
}

// publishAudit publishes one audit pass of r: the merged report, and on a
// sharded engine each shard's report under shard="i" labels so the
// watchdog and dashboards can see which shard is degrading, not just that
// the merged numbers moved.
func (s *Server) publishAudit(r *release) (*audit.Report, error) {
	rep, err := s.audit(r)
	if err != nil {
		return nil, err
	}
	rep.Publish(s.reg)
	if s.shards >= 2 {
		shards, err := s.shardAudits(r)
		if err != nil {
			return nil, err
		}
		for i, sr := range shards {
			sr.PublishShard(s.reg, i)
		}
	}
	return rep, nil
}

// audit returns the merged audit report of r. Like every other artifact
// it reads only the release's group moments (plus the engine's bootstrap
// leftover count), so no raw record can shape what it publishes.
func (s *Server) audit(r *release) (*audit.Report, error) {
	return memo(r, &r.audit, s.cmAudit, func() (*audit.Report, error) {
		// Leftovers only arise when a static bootstrap folded sub-k
		// remainders into nearest groups; the engine's counter carries
		// that count forward.
		leftovers := int(s.reg.Counter("condense_leftover_records_total").Value())
		return audit.Compute(r.Condensation(), audit.Config{Leftovers: leftovers})
	})
}

// shardAudits returns r's per-shard audit reports: the same pooled
// group-moment metrics as the merged report, but without the bootstrap
// leftover count.
func (s *Server) shardAudits(r *release) ([]*audit.Report, error) {
	reps, err := memo(r, &r.shardAudits, cacheMetrics{}, func() (*[]*audit.Report, error) {
		reps := make([]*audit.Report, s.shards)
		for i := range reps {
			var err error
			if reps[i], err = audit.Compute(r.Shard(i), audit.Config{}); err != nil {
				return nil, err
			}
		}
		return &reps, nil
	})
	if err != nil {
		return nil, err
	}
	return *reps, nil
}

// shardAudit is one shard's entry in the by_shard audit array.
type shardAudit struct {
	Shard int `json:"shard"`
	*audit.Report
}

// auditByShardResponse is the merged audit report plus the per-shard
// breakdown.
type auditByShardResponse struct {
	*audit.Report
	ByShard []shardAudit `json:"by_shard"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	q := queryParams(r)
	shard, hasShard, err := s.shardParam(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rel := s.release()
	var resp auditByShardResponse
	if !hasShard {
		if resp.Report, err = s.publishAudit(rel); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if !byShardParam(q) {
			writeJSON(w, http.StatusOK, resp.Report)
			return
		}
	}
	shards, err := s.shardAudits(rel)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if hasShard {
		writeJSON(w, http.StatusOK, shardAudit{Shard: shard, Report: shards[shard]})
		return
	}
	for i, sr := range shards {
		resp.ByShard = append(resp.ByShard, shardAudit{Shard: i, Report: sr})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tr == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing not enabled (start with -trace-sample > 0)"))
		return
	}
	last, err := parseLast(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.tr.WriteChromeTrace(w, last)
}
