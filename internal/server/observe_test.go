package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"condensation/internal/audit"
	"condensation/internal/core"
	"condensation/internal/telemetry"
)

// observed bundles the pieces an observability test drives directly.
type observed struct {
	ts  *httptest.Server
	s   *Server
	reg *telemetry.Registry
	rec *telemetry.Recorder
	wd  *telemetry.Watchdog
	log *bytes.Buffer
}

// newObservedServer builds a server with the full observability stack
// attached: registry, flight recorder, and a watchdog running the
// standard rule set for the shard count. The scrape loop is NOT started —
// tests call rec.Scrape/wd.Evaluate themselves to drive windows
// deterministically.
func newObservedServer(t *testing.T, shards int) observed {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, 64)
	var logbuf bytes.Buffer
	logger, err := telemetry.NewLogger(&logbuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	wd := telemetry.NewWatchdog(reg, logger, HealthRules(5, shards)...)
	condenser, err := core.NewCondenser(5, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:    sharded(t, condenser, 2, shards),
		Telemetry: reg, Recorder: rec, Watchdog: wd,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	testServers[ts.URL] = s
	t.Cleanup(func() {
		delete(testServers, ts.URL)
		ts.Close()
	})
	return observed{ts: ts, s: s, reg: reg, rec: rec, wd: wd, log: &logbuf}
}

// historyBody mirrors the /v1/history response.
type historyBody struct {
	Capacity int                `json:"capacity"`
	Recorded uint64             `json:"recorded"`
	Windows  []telemetry.Window `json:"windows"`
}

// rulesBody mirrors the /v1/health/rules response.
type rulesBody struct {
	Status string                 `json:"status"`
	Rules  []telemetry.RuleStatus `json:"rules"`
}

// TestReleaseBelowKRule: the standard rule set watches the installed
// release's smallest group through condense_release_min_group_size: ok at
// 0 (nothing released yet) and at k or more, failing from 1 to k−1. No
// release can hold a group below k, so the failing range is driven by
// setting the gauge directly.
func TestReleaseBelowKRule(t *testing.T) {
	const k = 5 // newObservedServer's k
	o := newObservedServer(t, 1)
	state := func() telemetry.Severity {
		t.Helper()
		o.rec.Scrape()
		o.wd.Evaluate(o.rec)
		_, rules := o.wd.Status()
		for _, r := range rules {
			if r.Name == "release_below_k" {
				return r.State
			}
		}
		t.Fatal("the standard rule set has no release_below_k rule")
		return 0
	}
	gauge := o.reg.Gauge(MetricReleaseMinGroupSize)

	// The pure-stream bootstrap releases nothing: the gauge reads 0.
	postRecords(t, o.ts, genRecords(1, k-1))
	getJSON(t, o.ts.URL+"/v1/stats", nil)
	if v := gauge.Value(); v != 0 {
		t.Fatalf("release gauge %v during the bootstrap, want 0", v)
	}
	if got := state(); got != telemetry.SevOK {
		t.Fatalf("release_below_k %v with nothing released, want ok", got)
	}
	postRecords(t, o.ts, genRecords(2, 200))
	getJSON(t, o.ts.URL+"/v1/stats", nil)
	if v := gauge.Value(); v < k {
		t.Fatalf("release gauge %v after 200 records, want at least k = %d", v, k)
	}
	if got := state(); got != telemetry.SevOK {
		t.Fatalf("release_below_k %v on a served release, want ok", got)
	}

	for v := 0; v <= 2*k; v++ {
		gauge.Set(float64(v))
		want := telemetry.SevOK
		if v > 0 && v < k {
			want = telemetry.SevFailing
		}
		if got := state(); got != want {
			t.Errorf("release_below_k at %d: %v, want %v", v, got, want)
		}
	}
}

func TestHistoryEndpoint(t *testing.T) {
	o := newObservedServer(t, 1)
	postRecords(t, o.ts, genRecords(1, 100))
	for i := 0; i < 3; i++ {
		o.rec.Scrape()
	}

	var hist historyBody
	if resp := getJSON(t, o.ts.URL+"/v1/history", &hist); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/history = %d", resp.StatusCode)
	}
	if len(hist.Windows) != 3 || hist.Recorded != 3 || hist.Capacity != 64 {
		t.Fatalf("history = %d windows, recorded %d, capacity %d; want 3/3/64",
			len(hist.Windows), hist.Recorded, hist.Capacity)
	}
	w := hist.Windows[0]
	if w.Counters[`http_requests_total{path="/v1/records",code="2xx"}`].Value != 1 {
		t.Errorf("first window is missing the ingest request count: %v", w.Counters)
	}
	if _, ok := w.Histograms[`http_request_seconds{path="/v1/records"}`]; !ok {
		t.Errorf("first window is missing the ingest latency histogram")
	}

	// ?last trims, ?series filters down to the selected families.
	var trimmed historyBody
	getJSON(t, o.ts.URL+"/v1/history?last=2&series=condense_groups", &trimmed)
	if len(trimmed.Windows) != 2 {
		t.Fatalf("last=2 returned %d windows", len(trimmed.Windows))
	}
	for _, w := range trimmed.Windows {
		if len(w.Counters) != 0 || len(w.Histograms) != 0 {
			t.Errorf("series filter leaked other families: %v %v", w.Counters, w.Histograms)
		}
		if _, ok := w.Gauges["condense_groups"]; !ok {
			t.Errorf("series filter dropped the requested gauge: %v", w.Gauges)
		}
	}

	if resp := getJSON(t, o.ts.URL+"/v1/history?last=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad last = %d, want 400", resp.StatusCode)
	}
}

// TestHistorySeriesValidation: a ?series selector matching nothing in the
// live registry used to silently return empty windows — exactly what
// "nothing was recorded" looks like. It is a 400 naming the unknown
// selectors now; selectors matching registered series (bare-name or
// labelled-family form) still pass.
func TestHistorySeriesValidation(t *testing.T) {
	o := newObservedServer(t, 1)
	postRecords(t, o.ts, genRecords(1, 60))
	o.rec.Scrape()

	for _, tc := range []struct {
		name    string
		query   string
		status  int
		wantErr string
	}{
		{"bare gauge name", "series=condense_groups", http.StatusOK, ""},
		{"labelled family by bare name", "series=http_requests_total", http.StatusOK, ""},
		{"exact labelled id", `series=http_request_seconds{path="/v1/records"}`, http.StatusOK, ""},
		{"two known selectors", "series=condense_groups,condense_groups_formed_total", http.StatusOK, ""},
		{"typo", "series=condense_gruops", http.StatusBadRequest, "condense_gruops"},
		{"known plus unknown", "series=condense_groups,no_such_series", http.StatusBadRequest, "no_such_series"},
		{"two unknown", "series=nope_a,nope_b", http.StatusBadRequest, "nope_a, nope_b"},
		{"label block on wrong family", `series=condense_groups{shard="0"}`, http.StatusBadRequest, "condense_groups{"},
		{"empty selector list", "series=", http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(o.ts.URL + "/v1/history?" + (&url.Values{}).Encode() + rawQuery(tc.query))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d\n%s", resp.StatusCode, tc.status, body)
			}
			if tc.status == http.StatusBadRequest {
				var env errorResponse
				if err := json.Unmarshal(body, &env); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(env.Error, "unknown series selector") ||
					!strings.Contains(env.Error, tc.wantErr) {
					t.Fatalf("error %q does not name %q", env.Error, tc.wantErr)
				}
			}
		})
	}
}

// rawQuery percent-encodes just the selector value of a "series=..."
// query so labelled ids (quotes, braces) survive the URL.
func rawQuery(q string) string {
	k, v, _ := strings.Cut(q, "=")
	return k + "=" + url.QueryEscape(v)
}

// TestObservabilityDisabled: without a recorder/watchdog the new
// endpoints 404 (like /debug/trace without a tracer) and /healthz still
// answers ok.
func TestObservabilityDisabled(t *testing.T) {
	ts := newTestServer(t, 5)
	for _, path := range []string{"/v1/history", "/v1/health/rules"} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without recorder = %d, want 404", path, resp.StatusCode)
		}
	}
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz without watchdog = %d %q, want 200 ok", resp.StatusCode, health.Status)
	}
}

// TestWatchdogDriftScenario is the acceptance scenario: injected audit
// moments drive the ks_drift rule ok → degraded and back, and the
// transition is visible in /healthz, /v1/health/rules,
// condense_alerts_total, and the structured log.
func TestWatchdogDriftScenario(t *testing.T) {
	o := newObservedServer(t, 1)
	ks := o.reg.Gauge(audit.MetricKSMean)

	step := func(v float64, n int) {
		for i := 0; i < n; i++ {
			ks.Set(v)
			o.rec.Scrape()
			o.wd.Evaluate(o.rec)
		}
	}

	healthStatus := func() (int, string) {
		var h struct {
			Status string `json:"status"`
		}
		resp := getJSON(t, o.ts.URL+"/healthz", &h)
		return resp.StatusCode, h.Status
	}

	// Stable baseline: a healthy KS mean, all rules ok.
	step(0.02, 6)
	if code, status := healthStatus(); code != http.StatusOK || status != "ok" {
		t.Fatalf("baseline healthz = %d %q, want 200 ok", code, status)
	}

	// Synthetic drift: the KS mean rises past the trend threshold.
	step(0.17, 6)
	if code, status := healthStatus(); code != http.StatusOK || status != "degraded" {
		t.Fatalf("drifted healthz = %d %q, want 200 degraded", code, status)
	}
	var rules rulesBody
	getJSON(t, o.ts.URL+"/v1/health/rules", &rules)
	if rules.Status != "degraded" {
		t.Errorf("rules status = %q, want degraded", rules.Status)
	}
	found := false
	for _, r := range rules.Rules {
		if r.Name == "ks_drift" {
			found = true
			if r.State.String() != "degraded" || r.Alerts != 1 || r.Transitions != 1 {
				t.Errorf("ks_drift status = %+v, want degraded with 1 alert", r)
			}
		}
	}
	if !found {
		t.Fatalf("ks_drift rule missing from %v", rules.Rules)
	}
	metrics := getBody(t, o.ts.URL+"/metrics")
	if !strings.Contains(metrics, `condense_alerts_total{rule="ks_drift"} 1`) {
		t.Errorf("metrics missing the ks_drift alert count")
	}
	if !strings.Contains(metrics, "condense_health_state 1") {
		t.Errorf("metrics missing the degraded health-state gauge")
	}
	logged := o.log.String()
	if !strings.Contains(logged, "health rule transition") ||
		!strings.Contains(logged, "rule=ks_drift") ||
		!strings.Contains(logged, "to=degraded") {
		t.Errorf("transition not in the structured log: %q", logged)
	}

	// The stream settles at the new level: the trend flattens and the rule
	// recovers, but the alert stays counted.
	step(0.17, 12)
	if code, status := healthStatus(); code != http.StatusOK || status != "ok" {
		t.Fatalf("recovered healthz = %d %q, want 200 ok", code, status)
	}
	if !strings.Contains(o.log.String(), "to=ok") {
		t.Errorf("recovery transition not logged")
	}
	metrics = getBody(t, o.ts.URL+"/metrics")
	if !strings.Contains(metrics, `condense_alerts_total{rule="ks_drift"} 1`) {
		t.Errorf("alert counter lost on recovery")
	}
}

// TestShardObservability: a shards=4 server populates the per-shard load
// gauges, the imbalance ratio, and (after an audit) the per-shard audit
// gauges, and the windows carry the family for the imbalance rule.
func TestShardObservability(t *testing.T) {
	o := newObservedServer(t, 4)
	postRecords(t, o.ts, genRecords(7, 400))
	o.rec.Scrape()
	o.wd.Evaluate(o.rec)
	if _, err := o.s.Audit(); err != nil {
		t.Fatal(err)
	}

	metrics := getBody(t, o.ts.URL+"/metrics")
	var perShard int
	for i := 0; i < 4; i++ {
		if strings.Contains(metrics, fmt.Sprintf(`condense_shard_records{shard="%d"}`, i)) {
			perShard++
		}
	}
	if perShard != 4 {
		t.Errorf("found %d/4 condense_shard_records series", perShard)
	}
	if !strings.Contains(metrics, "condense_shard_imbalance_ratio") {
		t.Errorf("metrics missing the imbalance ratio gauge")
	}
	for _, name := range []string{
		`condense_audit_records{shard="0"}`,
		`condense_audit_min_group_size{shard="3"}`,
		`condense_audit_leftover_ratio{shard="1"}`,
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing per-shard audit series %s", name)
		}
	}

	// The recorded window carries the family the imbalance rule reads.
	w, ok := o.rec.LastWindow()
	if !ok {
		t.Fatal("no window recorded")
	}
	var total float64
	for i := 0; i < 4; i++ {
		v, ok := w.Gauges[fmt.Sprintf(`condense_shard_records{shard="%d"}`, i)]
		if !ok {
			t.Fatalf("window missing shard %d records gauge", i)
		}
		total += float64(v)
	}
	if total != 400 {
		t.Errorf("per-shard records sum to %g, want 400", total)
	}

	// The standard rule set includes shard_imbalance only when sharded.
	var rules rulesBody
	getJSON(t, o.ts.URL+"/v1/health/rules", &rules)
	hasImbalance := func(rs []telemetry.RuleStatus) bool {
		for _, r := range rs {
			if r.Name == "shard_imbalance" {
				return true
			}
		}
		return false
	}
	if !hasImbalance(rules.Rules) {
		t.Errorf("sharded rule set missing shard_imbalance: %v", rules.Rules)
	}
	single := newObservedServer(t, 1)
	var singleRules rulesBody
	getJSON(t, single.ts.URL+"/v1/health/rules", &singleRules)
	if hasImbalance(singleRules.Rules) {
		t.Errorf("single-shard rule set includes shard_imbalance")
	}
}

func TestBuildInfoMetrics(t *testing.T) {
	o := newObservedServer(t, 2)
	metrics := getBody(t, o.ts.URL+"/metrics")
	if !strings.Contains(metrics, `condense_build_info{go_version="go`) ||
		!strings.Contains(metrics, `shards="2"`) {
		t.Errorf("metrics missing condense_build_info with go version and shard labels:\n%s",
			firstLines(metrics, 30))
	}
	if !strings.Contains(metrics, "condense_uptime_seconds") {
		t.Errorf("metrics missing condense_uptime_seconds")
	}
}

// TestObserveOnlyCheckpoint: an aggressively scraped server must produce
// a byte-identical checkpoint to an unobserved one over the same stream —
// the recorder and watchdog are observe-only.
func TestObserveOnlyCheckpoint(t *testing.T) {
	records := genRecords(3, 600)

	plain := newTestServer(t, 5)
	postRecords(t, plain, records)

	o := newObservedServer(t, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				o.rec.Scrape()
				o.wd.Evaluate(o.rec)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Ingest in small batches so scrapes interleave with live ingestion.
	for lo := 0; lo < len(records); lo += 50 {
		postRecords(t, o.ts, records[lo:lo+50])
	}
	close(stop)
	wg.Wait()

	a := getBody(t, plain.URL+"/v1/checkpoint")
	b := getBody(t, o.ts.URL+"/v1/checkpoint")
	if a != b {
		t.Fatalf("checkpoint bytes differ with the recorder enabled (%d vs %d bytes)", len(a), len(b))
	}
}

// getBody fetches a URL and returns the body as a string.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstLines truncates s to its first n lines for readable failures.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
