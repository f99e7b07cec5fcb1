package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeDaemon serves canned condenserd responses for the -watch probes.
func fakeDaemon(t *testing.T, degraded bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status, code := "ok", http.StatusOK
		if degraded {
			status, code = "degraded", http.StatusOK
		}
		w.WriteHeader(code)
		w.Write([]byte(`{"status":"` + status + `","go_version":"go1.23.0",` +
			`"vcs_revision":"abcdef0123456789","uptime_seconds":42.5,` +
			`"k":10,"shards":4,"groups":12,"records":360}`))
	})
	mux.HandleFunc("/v1/health/rules", func(w http.ResponseWriter, r *http.Request) {
		state := "ok"
		if degraded {
			state = "degraded"
		}
		w.Write([]byte(`{"status":"` + state + `","rules":[` +
			`{"name":"sse_degradation","description":"d","state":"` + state + `",` +
			`"detail":"sse 0.1 -> 0.325","since":"2026-08-07T00:00:00Z",` +
			`"last_transition":"2026-08-07T00:00:00Z","transitions":1,"alerts":1}]}`))
	})
	mux.HandleFunc("/v1/history", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"capacity":360,"recorded":5,"windows":[` +
			`{"seq":4,"start":"2026-08-07T10:00:00Z","end":"2026-08-07T10:00:10Z",` +
			`"counters":{"condense_stream_records_total":{"value":300,"delta":100}},` +
			`"gauges":{"condense_groups":12},` +
			`"histograms":{"http_request_seconds{path=\"/v1/records\"}":` +
			`{"count":3,"count_delta":1,"sum":0.03,"sum_delta":0.01,"p50":0.01,"p95":0.02,"p99":0.02}}},` +
			`{"seq":5,"start":"2026-08-07T10:00:10Z","end":"2026-08-07T10:00:20Z",` +
			`"counters":{"condense_stream_records_total":{"value":360,"delta":60}},` +
			`"gauges":{"condense_groups":12},` +
			`"histograms":{"http_request_seconds{path=\"/v1/records\"}":` +
			`{"count":3,"count_delta":0,"sum":0.03,"sum_delta":0,"p50":null,"p95":null,"p99":null}}}]}`))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestWatchReport(t *testing.T) {
	ts := fakeDaemon(t, true)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-watch", ts.URL}, nil, &stdout, &stderr); err != nil {
		t.Fatalf("run -watch: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"degraded",         // overall status from /healthz
		"rev abcdef012345", // truncated revision
		"shards=4",         // build identity line
		"360 records",      // live counts
		"sse_degradation",  // rule table
		"alerts=1",
		"+100",   // window 4 ingest delta
		"+60",    // window 5 ingest delta
		"20.0ms", // window 4 p95
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch report missing %q:\n%s", want, out)
		}
	}
	// Window 5 had no ingest traffic: its p95 renders as "-", not 0.0ms.
	dashed := false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "+60") && strings.HasSuffix(strings.TrimSpace(line), "-") {
			dashed = true
		}
	}
	if !dashed {
		t.Errorf("watch report does not dash out empty quantiles:\n%s", out)
	}
}

// TestWatchReportDisabled: a daemon running with -scrape-every 0 answers
// 404 on both observability endpoints; the report degrades gracefully.
func TestWatchReportDisabled(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok","go_version":"go1.23.0","uptime_seconds":1,` +
			`"k":5,"shards":1,"groups":0,"records":0}`))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"not enabled"}`, http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var stdout bytes.Buffer
	if err := run([]string{"-watch", ts.URL}, nil, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "health watchdog not enabled") ||
		!strings.Contains(out, "flight recorder not enabled") {
		t.Errorf("disabled report = %q, want both not-enabled notices", out)
	}
}

// TestWatchReportUnreachable: a dead daemon is an error, not a panic.
func TestWatchReportUnreachable(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-watch", "http://127.0.0.1:1"}, nil, &stdout, &bytes.Buffer{})
	if err == nil {
		t.Fatal("probing an unreachable daemon succeeded")
	}
}
