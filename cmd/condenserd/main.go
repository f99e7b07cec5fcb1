// Command condenserd runs the condensation HTTP service: a data-collection
// endpoint that ingests records incrementally (the paper's dynamic
// setting), retains only per-group aggregate statistics, and serves
// anonymized snapshots, statistics, and binary checkpoints.
//
// Usage:
//
//	condenserd -addr :8080 -dim 7 -k 25
//	condenserd -addr :8080 -dim 7 -k 25 -par 8
//	condenserd -addr :8080 -dim 7 -k 25 -shards 4
//	condenserd -addr :8080 -resume checkpoint.bin   (an explicit -k or -dim must match the checkpoint's)
//	condenserd -addr :8080 -dim 7 -debug-addr localhost:6060
//	condenserd -addr :8080 -dim 7 -trace-sample 100 -trace-out trace.json
//
// Endpoints: POST /v1/records, POST /v1/explain, GET /v1/snapshot,
// GET /v1/stats, GET /v1/audit, GET /v1/checkpoint, GET /v1/history,
// GET /v1/events, GET /v1/groups, GET /v1/groups/{id},
// GET /v1/health/rules, GET /healthz, GET /metrics, GET /debug/trace,
// GET /debug/bundle (see internal/server). With
// -debug-addr set, net/http/pprof profiling endpoints are served on that
// separate (ideally loopback-only) address.
//
// Reads are generation-versioned: every read is derived from one
// k-gated release of the engine's state per mutation generation (reported
// on /healthz), which memoizes synthesized bodies, stats, audit reports,
// and encoded checkpoints, so repeated reads of unchanged state replay
// prepared bytes instead of recloning groups. Groups below k records are
// never released; until one reaches k, GET /v1/snapshot answers 409. GET /v1/checkpoint serves a strong ETag: "<generation>" and
// answers If-None-Match with 304, so replica-style pollers re-download
// only after a write; cache effectiveness is exported as
// condense_read_cache_{hits,misses}_total{cache=...} on /metrics.
//
// A background auditor recomputes the privacy-audit report (group-size
// distribution, SSE ratio, KS distances — see internal/audit) every
// -audit-every and publishes it to /metrics; -audit-every 0 disables it.
// With -trace-sample N > 0, 1 in N requests records a pipeline span tree,
// exported live on /debug/trace and written as a Chrome trace-event file
// to -trace-out on shutdown (SIGINT/SIGTERM shut the server down
// gracefully).
//
// A flight recorder scrapes the metrics registry every -scrape-every
// (default 10s) on its own goroutine, keeping the last -history windows
// of counter deltas, gauge values, and windowed latency quantiles in a
// ring served from /v1/history. After each scrape a health watchdog
// evaluates its rules (a released group below k, KS drift, SSE
// degradation, ingest latency regression, shard imbalance) and drives
// /healthz and /v1/health/rules through ok → degraded → failing, logging
// every transition and counting escalations in
// condense_alerts_total{rule}. On shutdown, -history-out writes the
// buffered windows plus final rule states and a closing audit as JSON.
//
// A group-lifecycle journal (ring capacity -journal, default 4096; 0
// disables it) records structured explainability events — group creation,
// splits with parent→child lineage, speculation fallbacks, read-cache
// invalidations, watchdog transitions — served from /v1/events. Per-group
// diagnostics (size, birth generation, lineage, centroid drift, covariance
// condition number) are on /v1/groups and /v1/groups/{id}; POST /v1/explain
// dry-runs routing for a record against the current release without
// ingesting it. Every response carries an X-Request-Id (accepted from the
// client or minted), echoed in error envelopes and ingest log lines.
// GET /debug/bundle streams a one-shot tar.gz diagnostics snapshot;
// -bundle-out writes the same bundle on shutdown, through the same
// error-checked artifact path as -trace-out and -history-out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"condensation/internal/audit"
	"condensation/internal/core"
	"condensation/internal/server"
	"condensation/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, listenAndServe); err != nil {
		fmt.Fprintf(os.Stderr, "condenserd: %v\n", err)
		os.Exit(1)
	}
}

// listenAndServe serves h on addr until the context is cancelled (the
// signal path), then drains in-flight requests with a bounded graceful
// shutdown so post-serve work (the -trace-out write) still runs.
func listenAndServe(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}

// run builds the server and hands it to serve; serve is injected so tests
// can intercept the handler instead of binding a port.
func run(args []string, stderr io.Writer, serve func(ctx context.Context, addr string, h http.Handler) error) error {
	fs := flag.NewFlagSet("condenserd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		dim         = fs.Int("dim", 0, "record dimensionality (required unless -resume)")
		k           = fs.Int("k", 10, "indistinguishability level")
		shards      = fs.Int("shards", 1, "independent condenser shards (1 = single unsharded engine)")
		seed        = fs.Uint64("seed", 1, "random seed for split-axis decisions")
		batch       = fs.Int("batch", 10000, "maximum records per POST")
		parallel    = fs.Int("par", 0, "worker goroutines for batch routing and static sweeps (≤ 0 means NumCPU)")
		resume      = fs.String("resume", "", "checkpoint file to restore state from")
		logLevel    = fs.String("log-level", "info", "log level: debug, info, warn, error, or off")
		logFormat   = fs.String("log-format", "text", "log format: text or json")
		debugAddr   = fs.String("debug-addr", "", "optional separate listen address for net/http/pprof (keep it loopback-only)")
		auditEvery  = fs.Duration("audit-every", 30*time.Second, "privacy-audit recompute cadence (0 disables the background auditor)")
		auditSample = fs.Int("audit-sample", 0, "reservoir capacity of original records kept for KS audits (0 = default, negative disables)")
		traceSample = fs.Int("trace-sample", 0, "record a span tree for 1 in N requests (0 disables tracing)")
		traceBuffer = fs.Int("trace-buffer", 0, "completed spans kept in the trace ring (0 = default)")
		traceOut    = fs.String("trace-out", "", "write the recorded spans as a Chrome trace-event file on shutdown (implies -trace-sample 1 if unset)")
		scrapeEvery = fs.Duration("scrape-every", 10*time.Second, "flight-recorder scrape cadence (0 disables the recorder, the health watchdog, /v1/history, and /v1/health/rules)")
		historyCap  = fs.Int("history", 0, "flight-recorder ring capacity in windows (0 = default 360)")
		historyOut  = fs.String("history-out", "", "write the recorded windows, health-rule states, and a final audit as JSON on shutdown (re-enables the default -scrape-every if it was 0)")
		journalCap  = fs.Int("journal", 4096, "group-lifecycle journal ring capacity in events (0 disables the journal, /v1/events, and the bundle's journal entry)")
		bundleOut   = fs.String("bundle-out", "", "write a one-shot diagnostics bundle (tar.gz; same content as GET /debug/bundle) on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := telemetry.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	var tracer *telemetry.Tracer
	if *traceOut != "" && *traceSample <= 0 {
		// Asking for a trace file means asking for spans.
		*traceSample = 1
	}
	if *traceSample > 0 {
		tracer = telemetry.NewTracer(*traceBuffer, *traceSample)
	}

	if *shards < 1 {
		return fmt.Errorf("-shards must be ≥ 1, got %d", *shards)
	}
	if *historyOut != "" && *scrapeEvery <= 0 {
		// Asking for a history file means asking for scrapes.
		*scrapeEvery = 10 * time.Second
	}
	var jr *telemetry.Journal
	if *journalCap > 0 {
		jr = telemetry.NewJournal(*journalCap)
	}
	cfg := server.Config{
		MaxBatch:  *batch,
		Telemetry: reg, Logger: log,
		Tracer:      tracer,
		AuditSample: *auditSample,
		AuditSeed:   *seed,
		Journal:     jr,
	}
	var initial *core.Condensation
	condenserK, condenserOpts := *k, core.Options{}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			return err
		}
		cond, err := core.ReadCondensation(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("restoring %s: %w", *resume, err)
		}
		// The checkpoint's k, dim and options are authoritative when
		// resuming; an explicit -k or -dim must agree with them.
		if flagSet(fs, "k") && *k != cond.K() {
			return fmt.Errorf("-k %d differs from the k = %d of checkpoint %s", *k, cond.K(), *resume)
		}
		if flagSet(fs, "dim") && *dim != cond.Dim() {
			return fmt.Errorf("-dim %d differs from the dim = %d of checkpoint %s", *dim, cond.Dim(), *resume)
		}
		initial, condenserK, condenserOpts = cond, cond.K(), cond.Options()
		log.Info("restored checkpoint",
			slog.String("file", *resume),
			slog.Int("records", cond.TotalCount()),
			slog.Int("groups", cond.NumGroups()),
			slog.Int("k", cond.K()),
			slog.Int("dim", cond.Dim()))
	} else if *dim < 1 {
		fs.Usage()
		return fmt.Errorf("-dim is required when not resuming from a checkpoint")
	}
	// The server attaches the registry, tracer and journal to the engine
	// it serves, so the Condenser carries only the condensation settings.
	condenser, err := core.NewCondenser(condenserK,
		core.WithSeed(*seed), core.WithOptions(condenserOpts),
		core.WithParallelism(*parallel))
	if err != nil {
		return err
	}
	var eng *core.Dynamic
	if initial != nil {
		eng, err = condenser.ShardedFrom(initial, *shards)
	} else {
		eng, err = condenser.Sharded(*dim, *shards)
	}
	if err != nil {
		return err
	}
	cfg.Engine = eng
	var rec *telemetry.Recorder
	var wd *telemetry.Watchdog
	if *scrapeEvery > 0 {
		rec = telemetry.NewRecorder(reg, *historyCap)
		wd = telemetry.NewWatchdog(reg, log, server.HealthRules(condenserK, *shards)...)
		cfg.Recorder, cfg.Watchdog = rec, wd
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, log)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	bgCtx, cancelBG := context.WithCancel(ctx)
	if *auditEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			auditLoop(bgCtx, s, *auditEvery, log)
		}()
	}
	if rec != nil {
		// The scraper goroutine owns every scrape: the ingest path never
		// pays for recording, and the watchdog re-evaluates right after
		// each window lands.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.Run(bgCtx, *scrapeEvery, func(telemetry.Window) { wd.Evaluate(rec) })
		}()
	}

	log.Info("condenserd listening", slog.String("addr", *addr))
	serveErr := serve(ctx, *addr, s)
	cancelBG()
	wg.Wait()

	// Every shutdown artifact goes through one error-checked writer: all
	// are attempted even if one fails, each outcome is logged, and the
	// first failure surfaces as the process exit error (unless serving
	// itself already failed).
	var artifacts []shutdownArtifact
	if *historyOut != "" && rec != nil {
		artifacts = append(artifacts, shutdownArtifact{
			kind: "history", path: *historyOut,
			write: func(w io.Writer) error { return renderHistory(w, s, rec, wd, log) },
		})
	}
	if *traceOut != "" && tracer != nil {
		artifacts = append(artifacts, shutdownArtifact{
			kind: "trace", path: *traceOut,
			write: func(w io.Writer) error { return tracer.WriteChromeTrace(w, 0) },
		})
	}
	if *bundleOut != "" {
		artifacts = append(artifacts, shutdownArtifact{
			kind: "bundle", path: *bundleOut, write: s.WriteBundle,
		})
	}
	if err := writeShutdownArtifacts(artifacts, log); err != nil && serveErr == nil {
		serveErr = err
	}
	return serveErr
}

// shutdownArtifact is one file the graceful-shutdown path owes the
// operator: a kind for logging, a destination path, and a renderer that
// streams the artifact into the created file.
type shutdownArtifact struct {
	kind  string
	path  string
	write func(io.Writer) error
}

// writeShutdownArtifacts writes each artifact through writeArtifactFile,
// logs every outcome, and returns the first failure (later artifacts are
// still attempted — a failing trace write must not cost the history file).
func writeShutdownArtifacts(artifacts []shutdownArtifact, log *slog.Logger) error {
	var first error
	for _, a := range artifacts {
		if err := writeArtifactFile(a.path, a.write); err != nil {
			log.Error("writing "+a.kind+" file",
				slog.String("file", a.path),
				slog.String("error", err.Error()))
			if first == nil {
				first = err
			}
			continue
		}
		log.Info("wrote "+a.kind+" file", slog.String("file", a.path))
	}
	return first
}

// writeArtifactFile creates path and streams write into it, surfacing
// every failure point: create, render, and close (the close error matters
// — it is where a full disk shows up for buffered writes).
func writeArtifactFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// auditLoop recomputes the privacy audit on a fixed cadence until the
// context is cancelled. Each pass publishes its gauges to the registry
// (so /metrics stays fresh between /v1/audit calls) and logs a one-line
// summary; failures are logged and the loop keeps going.
func auditLoop(ctx context.Context, s *server.Server, every time.Duration, log *slog.Logger) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rep, err := s.Audit()
			if err != nil {
				log.Error("privacy audit failed", slog.String("error", err.Error()))
				continue
			}
			log.Info("privacy audit",
				slog.Int("records", rep.Records),
				slog.Int("groups", rep.Groups),
				slog.Float64("sse_ratio", rep.SSERatio),
				slog.Int("degenerate_groups", rep.DegenerateGroups))
		}
	}
}

// historyDump is the -history-out file layout: the buffered windows, the
// watchdog's final rule states, and one last audit report — the black box
// a post-mortem opens after SIGTERM.
type historyDump struct {
	Status  string                 `json:"status"`
	Rules   []telemetry.RuleStatus `json:"rules,omitempty"`
	Audit   *audit.Report          `json:"audit,omitempty"`
	Windows []telemetry.Window     `json:"windows"`
}

// renderHistory takes one final scrape (so the file covers work done
// after the last ticker fire), re-evaluates the watchdog, runs a closing
// audit, and streams everything to w as JSON. Audit failures (e.g. an
// empty condensation) degrade to an audit-less file rather than losing
// the windows.
func renderHistory(w io.Writer, s *server.Server, rec *telemetry.Recorder, wd *telemetry.Watchdog, log *slog.Logger) error {
	rep, err := s.Audit()
	if err != nil {
		log.Warn("final audit failed", slog.String("error", err.Error()))
		rep = nil
	}
	rec.Scrape()
	wd.Evaluate(rec)
	overall, rules := wd.Status()
	dump := historyDump{
		Status:  overall.String(),
		Rules:   rules,
		Audit:   rep,
		Windows: rec.Windows(0),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// serveDebug exposes the net/http/pprof profiling handlers on their own
// address, so profiling never shares a listener with the data-collection
// API and stays off unless explicitly requested.
func serveDebug(addr string, log *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Info("pprof listening", slog.String("addr", addr))
	if err := srv.ListenAndServe(); err != nil {
		log.Error("pprof server stopped", slog.String("error", err.Error()))
	}
}

// flagSet reports whether the named flag was set on the command line.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
