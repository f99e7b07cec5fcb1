package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"condensation/internal/telemetry"
)

// getWith fetches a URL with optional headers and returns the response
// (body fully read and closed) plus its bytes.
func getWith(t *testing.T, url string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func testCheckpointETagFlow(t *testing.T, shards int) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, shards), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postRecords(t, ts, genRecords(3, 60))

	hits := reg.Counter(MetricReadCacheHits, "cache", "checkpoint")

	resp, body := getWith(t, ts.URL+"/v1/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("checkpoint ETag %q, want a quoted generation", etag)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body is %d bytes", cl, len(body))
	}

	// Unchanged state: the exact bytes replay, the cache serves them, and
	// a conditional poller pays only a header round-trip.
	h0 := hits.Value()
	resp2, body2 := getWith(t, ts.URL+"/v1/checkpoint", nil)
	if resp2.Header.Get("ETag") != etag || !bytes.Equal(body, body2) {
		t.Fatal("unchanged state served different checkpoint bytes or ETag")
	}
	if hits.Value() <= h0 {
		t.Error("second checkpoint fetch did not hit the read cache")
	}
	for _, inm := range []string{etag, "*", `"zzz", ` + etag, "W/" + etag} {
		resp3, body3 := getWith(t, ts.URL+"/v1/checkpoint", map[string]string{"If-None-Match": inm})
		if resp3.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp3.StatusCode)
		}
		if len(body3) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried %d body bytes", inm, len(body3))
		}
		if resp3.Header.Get("ETag") != etag {
			t.Fatalf("304 must repeat the ETag, got %q", resp3.Header.Get("ETag"))
		}
	}
	if resp4, _ := getWith(t, ts.URL+"/v1/checkpoint", map[string]string{"If-None-Match": `"not-it"`}); resp4.StatusCode != http.StatusOK {
		t.Fatalf("non-matching If-None-Match: status %d, want 200", resp4.StatusCode)
	}

	// A write moves the generation: the old validator no longer matches
	// and the fresh body arrives under a new ETag.
	postRecords(t, ts, genRecords(4, 8))
	resp5, body5 := getWith(t, ts.URL+"/v1/checkpoint", map[string]string{"If-None-Match": etag})
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("post-write conditional fetch: status %d, want 200", resp5.StatusCode)
	}
	if resp5.Header.Get("ETag") == etag {
		t.Error("ETag did not change after a write")
	}
	if bytes.Equal(body5, body) {
		t.Error("checkpoint bytes did not change after a write")
	}
}

func TestCheckpointETagFlow(t *testing.T)        { testCheckpointETagFlow(t, 1) }
func TestCheckpointETagFlowSharded(t *testing.T) { testCheckpointETagFlow(t, 4) }

// truncWriter accepts n body bytes then fails, simulating a client that
// vanishes mid-response.
type truncWriter struct {
	header http.Header
	status int
	limit  int
	wrote  int
	failed bool
}

func (w *truncWriter) Header() http.Header { return w.header }
func (w *truncWriter) WriteHeader(s int)   { w.status = s }
func (w *truncWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.failed {
		return 0, errors.New("connection reset")
	}
	room := w.limit - w.wrote
	if len(p) <= room {
		w.wrote += len(p)
		return len(p), nil
	}
	w.wrote += room
	w.failed = true
	return room, errors.New("connection reset")
}

// TestCheckpointTruncationDetectable is the regression test for silent
// checkpoint truncation: the handler must declare Content-Length before
// the first body byte, so a mid-stream write failure leaves the client
// with fewer bytes than declared — detectable — rather than a cleanly
// terminated short stream.
func TestCheckpointTruncationDetectable(t *testing.T) {
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postRecords(t, ts, genRecords(5, 80))

	w := &truncWriter{header: make(http.Header), limit: 64}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/checkpoint", nil))
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if !w.failed {
		t.Fatalf("checkpoint fit in %d bytes; shrink the limit", w.limit)
	}
	declared, err := strconv.Atoi(w.header.Get("Content-Length"))
	if err != nil {
		t.Fatalf("Content-Length %q not declared: %v", w.header.Get("Content-Length"), err)
	}
	if declared <= w.wrote {
		t.Fatalf("declared %d bytes but %d were written — truncation would be silent", declared, w.wrote)
	}
}

func TestSnapshotMemoized(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, 1), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postRecords(t, ts, genRecords(6, 50))

	hits := reg.Counter(MetricReadCacheHits, "cache", "synthesis")
	misses := reg.Counter(MetricReadCacheMisses, "cache", "synthesis")

	resp1, body1 := getWith(t, ts.URL+"/v1/snapshot?seed=5", nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp1.StatusCode)
	}
	if cl := resp1.Header.Get("Content-Length"); cl != strconv.Itoa(len(body1)) {
		t.Fatalf("Content-Length %q, body is %d bytes", cl, len(body1))
	}
	m1, h1 := misses.Value(), hits.Value()

	_, body2 := getWith(t, ts.URL+"/v1/snapshot?seed=5", nil)
	if !bytes.Equal(body1, body2) {
		t.Fatal("memoized snapshot differs from the synthesized one")
	}
	if hits.Value() != h1+1 || misses.Value() != m1 {
		t.Errorf("repeat fetch: hits %d->%d misses %d->%d, want one hit, no miss",
			h1, hits.Value(), m1, misses.Value())
	}

	// A different seed is a different memo entry (fresh synthesis), and a
	// write invalidates every seed's entry.
	_, body3 := getWith(t, ts.URL+"/v1/snapshot?seed=6", nil)
	if bytes.Equal(body1, body3) {
		t.Error("different seeds returned identical synthesis")
	}
	if misses.Value() != m1+1 {
		t.Errorf("new seed should miss: misses %d->%d", m1, misses.Value())
	}
	postRecords(t, ts, genRecords(7, 4))
	_, body4 := getWith(t, ts.URL+"/v1/snapshot?seed=5", nil)
	if bytes.Equal(body1, body4) {
		t.Error("snapshot unchanged after a write")
	}
}

func TestStatsMemoizedAndHealthGeneration(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, 2), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postRecords(t, ts, genRecords(8, 64))

	hits := reg.Counter(MetricReadCacheHits, "cache", "stats")

	_, body1 := getWith(t, ts.URL+"/v1/stats", nil)
	h0 := hits.Value()
	_, body2 := getWith(t, ts.URL+"/v1/stats", nil)
	if !bytes.Equal(body1, body2) {
		t.Fatal("memoized stats body differs")
	}
	if hits.Value() != h0+1 {
		t.Errorf("repeat stats fetch: hits %d->%d, want +1", h0, hits.Value())
	}
	// The by-shard variant is its own entry and must agree with the
	// merged numbers.
	_, byShard := getWith(t, ts.URL+"/v1/stats?by_shard", nil)
	var sr statsResponse
	if err := json.Unmarshal(byShard, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Records != 64 || len(sr.ByShard) != 2 {
		t.Fatalf("by_shard stats %+v", sr)
	}
	var shardRecords int
	for _, st := range sr.ByShard {
		shardRecords += st.Records
	}
	if shardRecords != sr.Records {
		t.Errorf("per-shard records sum to %d, merged says %d", shardRecords, sr.Records)
	}

	_, hb := getWith(t, ts.URL+"/healthz", nil)
	var hr healthResponse
	if err := json.Unmarshal(hb, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Generation != 64 {
		t.Errorf("healthz generation %d after 64 records, want 64", hr.Generation)
	}
	postRecords(t, ts, genRecords(9, 3))
	_, hb2 := getWith(t, ts.URL+"/healthz", nil)
	var hr2 healthResponse
	if err := json.Unmarshal(hb2, &hr2); err != nil {
		t.Fatal(err)
	}
	if hr2.Generation != 67 {
		t.Errorf("healthz generation %d after 67 records, want 67", hr2.Generation)
	}
	_, body3 := getWith(t, ts.URL+"/v1/stats", nil)
	if bytes.Equal(body1, body3) {
		t.Error("stats unchanged after a write")
	}
}

func TestAuditMemoized(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 4, 1), 2, 2), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	postRecords(t, ts, genRecords(10, 72))

	hits := reg.Counter(MetricReadCacheHits, "cache", "audit")
	runs := reg.Counter("condense_audit_runs_total")
	rep1, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	h0, r0 := hits.Value(), runs.Value()
	rep2, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 {
		t.Error("unchanged state recomputed the audit report")
	}
	if hits.Value() != h0+1 {
		t.Errorf("repeat audit: hits %d->%d, want +1", h0, hits.Value())
	}
	// Publishing still happens per call, so the watchdog's run counter
	// keeps its cadence even on memo hits.
	if runs.Value() <= r0 {
		t.Error("memoized audit skipped publishing")
	}
	// New records move the generation: recompute.
	postRecords(t, ts, genRecords(11, 6))
	rep3, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep3 == rep1 {
		t.Error("audit not recomputed after a write")
	}
}

// FuzzEtagMatch fuzzes the If-None-Match comparison against the
// invariants RFC 9110 §13.1.2 pins down, seeded with the conditional-GET
// cases TestCheckpointETag drives over HTTP.
func FuzzEtagMatch(f *testing.F) {
	etag := `"42"`
	for _, seed := range [][2]string{
		{etag, etag},             // exact match
		{"*", etag},              // wildcard
		{`"zzz", ` + etag, etag}, // list member
		{"W/" + etag, etag},      // weak comparison
		{`"not-it"`, etag},       // no match
		{"", etag},               // empty header
		{" W/\"a\" , \"b\"", `"b"`},
		{`"a,b"`, `"a,b"`}, // comma inside the opaque tag
		{"W/", "W/"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, etag string) {
		got := etagMatch(header, etag)

		// An empty header never matches anything.
		if header == "" && got {
			t.Fatalf("etagMatch(%q, %q) = true for an empty header", header, etag)
		}
		// A lone "*" matches every representation.
		if header == "*" && !got {
			t.Fatalf("etagMatch(*, %q) = false", etag)
		}
		// Self-match: a comma-free, space-trimmed tag always matches a
		// header consisting of exactly itself (weak comparison makes W/
		// prefixes irrelevant).
		if etag != "" && !strings.Contains(etag, ",") && strings.TrimSpace(etag) == etag {
			if !etagMatch(etag, etag) {
				t.Fatalf("etagMatch(%q, %q) = false for self", etag, etag)
			}
		}
		// Weak comparison ignores one W/ prefix on the etag: adding it to
		// an unprefixed tag never changes the verdict.
		if !strings.HasPrefix(etag, "W/") && got != etagMatch(header, "W/"+etag) {
			t.Fatalf("etagMatch(%q, %q) != etagMatch(%q, W/%q)", header, etag, header, etag)
		}
		// Appending a list member never un-matches an already matching
		// header.
		if got && !etagMatch(header+`, "other"`, etag) {
			t.Fatalf("appending a member to %q lost the match on %q", header, etag)
		}
	})
}
