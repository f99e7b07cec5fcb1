package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// capture runs run() with a serve function that records the handler
// instead of listening.
func capture(t *testing.T, args []string) (http.Handler, error) {
	t.Helper()
	var handler http.Handler
	err := run(args, &bytes.Buffer{}, func(ctx context.Context, addr string, h http.Handler) error {
		handler = h
		return nil
	})
	return handler, err
}

// serveWith runs run() with a serve function that exercises the handler
// through a live httptest server while run's background machinery (the
// audit loop, the trace writer) is active.
func serveWith(t *testing.T, args []string, body func(ts *httptest.Server)) error {
	t.Helper()
	return run(args, &bytes.Buffer{}, func(ctx context.Context, addr string, h http.Handler) error {
		ts := httptest.NewServer(h)
		defer ts.Close()
		body(ts)
		return nil
	})
}

func TestRunFresh(t *testing.T) {
	h, err := capture(t, []string{"-dim", "3", "-k", "5"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// writeCheckpoint persists a static k=5 condensation of 30 records and
// returns its path.
func writeCheckpoint(t *testing.T) string {
	t.Helper()
	r := rng.New(1)
	recs := make([]mat.Vector, 30)
	for i := range recs {
		recs[i] = mat.Vector{r.Norm(), r.Norm()}
	}
	c, err := core.NewCondenser(5, core.WithRandomSource(r))
	if err != nil {
		t.Fatal(err)
	}
	cond, err := c.Static(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cond.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunResume(t *testing.T) {
	h, err := capture(t, []string{"-resume", writeCheckpoint(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Records int `json:"records"`
		K       int `json:"k"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Records != 30 || stats.K != 5 {
		t.Errorf("resumed stats %+v", stats)
	}
}

// TestRunResumeK: the checkpoint's k is authoritative on -resume. An
// explicit -k equal to it is accepted; a different one is refused rather
// than silently replaced.
func TestRunResumeK(t *testing.T) {
	path := writeCheckpoint(t)
	if _, err := capture(t, []string{"-resume", path, "-k", "5", "-log-level", "off"}); err != nil {
		t.Fatalf("-k equal to the checkpoint's refused: %v", err)
	}
	_, err := capture(t, []string{"-resume", path, "-k", "7", "-log-level", "off"})
	if err == nil || !strings.Contains(err.Error(), "k = 5") {
		t.Fatalf("-k 7 against a k = 5 checkpoint: err = %v, want a refusal naming k = 5", err)
	}
}

// TestRunResumeDim: the checkpoint's dim is authoritative on -resume, like
// its k. An explicit -dim equal to it is accepted; a different one is
// refused rather than silently replaced.
func TestRunResumeDim(t *testing.T) {
	path := writeCheckpoint(t)
	if _, err := capture(t, []string{"-resume", path, "-dim", "2", "-log-level", "off"}); err != nil {
		t.Fatalf("-dim equal to the checkpoint's refused: %v", err)
	}
	_, err := capture(t, []string{"-resume", path, "-dim", "7", "-log-level", "off"})
	if err == nil || !strings.Contains(err.Error(), "dim = 2") {
		t.Fatalf("-dim 7 against a dim = 2 checkpoint: err = %v, want a refusal naming dim = 2", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                          // no dim, no resume
		{"-dim", "0"},               // bad dim
		{"-dim", "2", "-k", "0"},    // bad k
		{"-resume", "/nonexistent"}, // missing checkpoint
	}
	for _, args := range cases {
		if _, err := capture(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunResumeCorruptCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, []string{"-resume", path}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestRunMetricsWired(t *testing.T) {
	h, err := capture(t, []string{"-dim", "2", "-k", "3", "-log-level", "off"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/records", "application/json",
		bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"http_request_seconds_bucket",
		"condense_stream_records_total 4",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestRunBadLogFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-dim", "2", "-log-level", "chatty"},
		{"-dim", "2", "-log-format", "xml"},
	} {
		if _, err := capture(t, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunAuditLoop: with a short -audit-every, the background auditor
// publishes the audit gauges to /metrics without anyone hitting /v1/audit.
func TestRunAuditLoop(t *testing.T) {
	err := serveWith(t, []string{"-dim", "2", "-k", "4", "-log-level", "off", "-audit-every", "20ms"},
		func(ts *httptest.Server) {
			resp, err := http.Post(ts.URL+"/v1/records", "application/json",
				bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8],[2,1],[4,3],[6,5],[8,7]]}`)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if strings.Contains(string(body), "condense_audit_runs_total") &&
					strings.Contains(string(body), "condense_audit_records 8") {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("audit loop never published metrics; /metrics:\n%s", body)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceOut: -trace-out implies sampling, records request spans, and
// writes a Chrome trace-event file once serve returns.
func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	err := serveWith(t, []string{"-dim", "2", "-k", "3", "-log-level", "off",
		"-audit-every", "0", "-trace-out", path},
		func(ts *httptest.Server) {
			resp, err := http.Post(ts.URL+"/v1/records", "application/json",
				bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8]]}`)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			// The live endpoint serves the same spans before shutdown.
			resp, err = http.Get(ts.URL + "/debug/trace")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/debug/trace status %d", resp.StatusCode)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"http /v1/records", "dynamic.add_batch"} {
		if !names[want] {
			t.Errorf("trace file missing %q span (got %v)", want, names)
		}
	}
}

// TestRunSearchFlag covers the backend flags: -search and -precision are
// gone (the daemon always routes with the default exact search), and so is
// -par (each shard applies its records in order, and the daemon runs no
// static sweep), so all three are refused before listening, while the
// default daemon serves.
func TestRunSearchFlag(t *testing.T) {
	h, err := capture(t, []string{"-dim", "2", "-k", "3"})
	if err != nil {
		t.Fatalf("default flags: %v", err)
	}
	ts := httptest.NewServer(h)
	resp, err := http.Post(ts.URL+"/v1/records", "application/json",
		bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("default flags: ingest status %d", resp.StatusCode)
	}
	for _, flag := range [][2]string{{"-search", "auto"}, {"-precision", "auto"}, {"-par", "2"}} {
		if _, err := capture(t, []string{"-dim", "2", flag[0], flag[1]}); err == nil {
			t.Errorf("removed flag %s accepted", flag[0])
		}
	}
}

// TestRunShards covers the -shards flag: a sharded daemon reports its
// shard count on /healthz, advances every shard's stream counter, releases
// only groups of k to 2k−1 records, and rejects nonsensical shard counts
// before listening.
func TestRunShards(t *testing.T) {
	h, err := capture(t, []string{"-dim", "2", "-k", "4", "-shards", "4", "-log-level", "off"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	records := make([][]float64, 200)
	r := rng.New(3)
	for i := range records {
		records[i] = []float64{r.Norm(), r.Norm()}
	}
	body, err := json.Marshal(map[string]interface{}{"records": records})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Shards  int `json:"shards"`
		Records int `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Shards != 4 || health.Records != 200 {
		t.Fatalf("healthz %+v", health)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		MinGroupSize int `json:"min_group_size"`
		MaxGroupSize int `json:"max_group_size"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinGroupSize < 4 || stats.MaxGroupSize > 7 {
		t.Fatalf("released group sizes [%d, %d], want within [k, 2k−1] = [4, 7]", stats.MinGroupSize, stats.MaxGroupSize)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := `condense_stream_records_total{shard="` + strconv.Itoa(i) + `"}`
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	if _, err := capture(t, []string{"-dim", "2", "-shards", "0"}); err == nil {
		t.Error("-shards 0 accepted")
	}
}

// TestRunScraper: the background scraper fills /v1/history, the watchdog
// serves /v1/health/rules, and -scrape-every 0 turns both off.
func TestRunScraper(t *testing.T) {
	err := serveWith(t, []string{"-dim", "2", "-k", "4", "-log-level", "off",
		"-audit-every", "0", "-scrape-every", "20ms"},
		func(ts *httptest.Server) {
			resp, err := http.Post(ts.URL+"/v1/records", "application/json",
				bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8],[2,1],[4,3],[6,5],[8,7]]}`)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				resp, err := http.Get(ts.URL + "/v1/history")
				if err != nil {
					t.Fatal(err)
				}
				var hist struct {
					Windows []struct {
						Seq uint64 `json:"seq"`
					} `json:"windows"`
				}
				err = json.NewDecoder(resp.Body).Decode(&hist)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(hist.Windows) >= 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("scraper never recorded two windows")
				}
				time.Sleep(10 * time.Millisecond)
			}
			resp, err = http.Get(ts.URL + "/v1/health/rules")
			if err != nil {
				t.Fatal(err)
			}
			var rules struct {
				Status string `json:"status"`
				Rules  []struct {
					Name string `json:"name"`
				} `json:"rules"`
			}
			err = json.NewDecoder(resp.Body).Decode(&rules)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if rules.Status != "ok" || len(rules.Rules) == 0 || rules.Rules[0].Name != "release_below_k" {
				t.Errorf("health rules = %q with %+v, want ok led by release_below_k", rules.Status, rules.Rules)
			}
		})
	if err != nil {
		t.Fatal(err)
	}

	// -scrape-every 0: both endpoints are 404, /healthz still ok.
	err = serveWith(t, []string{"-dim", "2", "-k", "4", "-log-level", "off",
		"-audit-every", "0", "-scrape-every", "0"},
		func(ts *httptest.Server) {
			for _, path := range []string{"/v1/history", "/v1/health/rules"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("GET %s with scraping off = %d, want 404", path, resp.StatusCode)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunHistoryOut: graceful shutdown flushes the windows, rule states,
// and a final audit to the -history-out file.
func TestRunHistoryOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	err := serveWith(t, []string{"-dim", "2", "-k", "3", "-log-level", "off",
		"-audit-every", "0", "-scrape-every", "20ms", "-history-out", path},
		func(ts *httptest.Server) {
			resp, err := http.Post(ts.URL+"/v1/records", "application/json",
				bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8]]}`)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			time.Sleep(50 * time.Millisecond)
		})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("history file not written: %v", err)
	}
	var doc struct {
		Status string `json:"status"`
		Rules  []struct {
			Name string `json:"name"`
		} `json:"rules"`
		Audit *struct {
			Records int `json:"records"`
		} `json:"audit"`
		Windows []struct {
			Seq uint64 `json:"seq"`
		} `json:"windows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("history file not valid JSON: %v", err)
	}
	if doc.Status != "ok" || len(doc.Rules) == 0 {
		t.Errorf("history file status = %q with %d rules, want ok with rules", doc.Status, len(doc.Rules))
	}
	if doc.Audit == nil || doc.Audit.Records != 4 {
		t.Errorf("history file audit = %+v, want a final audit over 4 records", doc.Audit)
	}
	if len(doc.Windows) == 0 {
		t.Error("history file has no windows (final flush scrape missing)")
	}
	// -history-out alone re-enables scraping.
	path2 := filepath.Join(t.TempDir(), "history2.json")
	err = serveWith(t, []string{"-dim", "2", "-k", "3", "-log-level", "off",
		"-audit-every", "0", "-scrape-every", "0", "-history-out", path2},
		func(ts *httptest.Server) {
			resp, err := http.Get(ts.URL + "/v1/history")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/v1/history with -history-out = %d, want 200", resp.StatusCode)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path2); err != nil {
		t.Errorf("history file not written when -history-out implied scraping: %v", err)
	}
}

// TestRunBundleOut: -bundle-out writes a valid tar.gz diagnostics bundle
// through the unified shutdown-artifact path, and /v1/events serves the
// default-enabled lifecycle journal while the daemon runs.
func TestRunBundleOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.tar.gz")
	err := serveWith(t, []string{"-dim", "2", "-k", "3", "-log-level", "off",
		"-audit-every", "0", "-scrape-every", "0", "-bundle-out", path},
		func(ts *httptest.Server) {
			resp, err := http.Post(ts.URL+"/v1/records", "application/json",
				bytes.NewReader([]byte(`{"records":[[1,2],[3,4],[5,6],[7,8]]}`)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			er, err := http.Get(ts.URL + "/v1/events")
			if err != nil {
				t.Fatal(err)
			}
			er.Body.Close()
			if er.StatusCode != http.StatusOK {
				t.Errorf("/v1/events with the default journal = %d, want 200", er.StatusCode)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("bundle file not written: %v", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	names := map[string]bool{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		names[hdr.Name] = true
	}
	for _, want := range []string{"healthz.json", "metrics.prom", "audit.json", "journal.json"} {
		if !names[want] {
			t.Errorf("bundle is missing %s (has %v)", want, names)
		}
	}

	// -journal 0 disables the journal: /v1/events 404s and the bundle
	// omits its entry.
	err = serveWith(t, []string{"-dim", "2", "-k", "3", "-log-level", "off",
		"-audit-every", "0", "-scrape-every", "0", "-journal", "0"},
		func(ts *httptest.Server) {
			resp, err := http.Get(ts.URL + "/v1/events")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("/v1/events with -journal 0 = %d, want 404", resp.StatusCode)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteShutdownArtifacts: a failing artifact is logged, surfaces as
// the returned error, and does not stop later artifacts from landing.
func TestWriteShutdownArtifacts(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	log, err := telemetry.NewLogger(io.Discard, "off", "text")
	if err != nil {
		t.Fatal(err)
	}
	werr := writeShutdownArtifacts([]shutdownArtifact{
		{kind: "broken", path: filepath.Join(dir, "no-such-dir", "x"),
			write: func(io.Writer) error { return nil }},
		{kind: "good", path: good,
			write: func(w io.Writer) error { _, err := w.Write([]byte("ok")); return err }},
	}, log)
	if werr == nil {
		t.Fatal("first artifact's create failure not returned")
	}
	if data, err := os.ReadFile(good); err != nil || string(data) != "ok" {
		t.Fatalf("later artifact not written after earlier failure: %v %q", err, data)
	}
}
