package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"condensation/internal/core"
	"condensation/internal/kernel"
	"condensation/internal/mat"
	"condensation/internal/rng"
)

// newCondenser returns a condenser at level k under the given seed.
func newCondenser(t testing.TB, k int, seed uint64) *core.Condenser {
	t.Helper()
	c, err := core.NewCondenser(k, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestServer(t *testing.T, k int) *httptest.Server {
	t.Helper()
	s, err := New(Config{Dim: 2, Condenser: newCondenser(t, k, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	testServers[ts.URL] = s
	t.Cleanup(func() {
		delete(testServers, ts.URL)
		ts.Close()
	})
	return ts
}

func postRecords(t *testing.T, ts *httptest.Server, records [][]float64) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]interface{}{"records": records})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func genRecords(seed uint64, n int) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{r.Norm(), r.Norm()}
	}
	return out
}

func TestIngestAndStats(t *testing.T) {
	ts := newTestServer(t, 5)
	resp := postRecords(t, ts, genRecords(1, 60))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var rr recordsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != 60 || rr.Groups < 1 {
		t.Errorf("response %+v", rr)
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Records != 60 || sr.K != 5 || sr.Dim != 2 {
		t.Errorf("stats %+v", sr)
	}
	if sr.MaxGroupSize >= 10 {
		t.Errorf("max group size %d ≥ 2k", sr.MaxGroupSize)
	}
}

func TestSnapshot(t *testing.T) {
	ts := newTestServer(t, 4)
	postRecords(t, ts, genRecords(2, 40))

	resp, err := http.Get(ts.URL + "/v1/snapshot?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	var sr snapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != 40 {
		t.Errorf("snapshot has %d records, want 40", len(sr.Records))
	}
	for i, rec := range sr.Records {
		if len(rec) != 2 {
			t.Fatalf("record %d has dimension %d", i, len(rec))
		}
	}

	// Same seed → identical snapshot (determinism across HTTP).
	resp2, err := http.Get(ts.URL + "/v1/snapshot?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sr2 snapshotResponse
	if err := json.NewDecoder(resp2.Body).Decode(&sr2); err != nil {
		t.Fatal(err)
	}
	for i := range sr.Records {
		for j := range sr.Records[i] {
			if sr.Records[i][j] != sr2.Records[i][j] {
				t.Fatal("snapshots with identical seeds differ")
			}
		}
	}
}

func TestSnapshotEmptyConflict(t *testing.T) {
	ts := newTestServer(t, 3)
	resp, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("empty snapshot status %d, want 409", resp.StatusCode)
	}
}

// badRecordsBodies are POST /v1/records bodies a dimension-2 server must
// refuse. They also seed FuzzDecodeRecords.
var badRecordsBodies = []struct {
	name string
	body string
	want int
}{
	{"empty body", ``, http.StatusBadRequest},
	{"no records", `{"records": []}`, http.StatusBadRequest},
	{"wrong dim", `{"records": [[1]]}`, http.StatusBadRequest},
	{"non finite", `{"records": [[1, 1e999]]}`, http.StatusBadRequest},
	{"unknown field", `{"record": [[1,2]]}`, http.StatusBadRequest},
	{"null value", `{"records": [[null, 1]]}`, http.StatusBadRequest},
	{"null row", `{"records": [null]}`, http.StatusBadRequest},
	{"null records", `{"records": null}`, http.StatusBadRequest},
	{"trailing object", `{"records": [[1,2]]}{"records": [[3,4]]}`, http.StatusBadRequest},
	{"trailing garbage", `{"records": [[1,2]]} x`, http.StatusBadRequest},
	{"case-folded key", `{"RECORDS": [[1,2]]}`, http.StatusBadRequest},
	{"escaped key", `{"rec\u006frds": [[1,2]]}`, http.StatusBadRequest},
	{"duplicate key", `{"records": [[1,2]], "records": [[3,4]]}`, http.StatusBadRequest},
	{"leading zero", `{"records": [[01, 2]]}`, http.StatusBadRequest},
	{"leading plus", `{"records": [[+1, 2]]}`, http.StatusBadRequest},
	{"bare fraction", `{"records": [[.5, 2]]}`, http.StatusBadRequest},
	{"empty fraction", `{"records": [[1., 2]]}`, http.StatusBadRequest},
	{"empty exponent", `{"records": [[1e, 2]]}`, http.StatusBadRequest},
	{"hex", `{"records": [[0x1p-2, 2]]}`, http.StatusBadRequest},
	{"infinity literal", `{"records": [[Infinity, 2]]}`, http.StatusBadRequest},
	{"string value", `{"records": [["1", 2]]}`, http.StatusBadRequest},
	{"trailing comma", `{"records": [[1, 2],]}`, http.StatusBadRequest},
	{"truncated", `{"records": [[1, 2]`, http.StatusBadRequest},
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, 3)
	for _, tc := range badRecordsBodies {
		resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestBatchLimit(t *testing.T) {
	s, err := New(Config{Dim: 2, Condenser: newCondenser(t, 2, 1), MaxBatch: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	body, _ := json.Marshal(map[string]interface{}{"records": genRecords(3, 6)})
	resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, 3)
	for _, path := range []string{"/v1/records", "/v1/snapshot", "/v1/stats", "/v1/checkpoint"} {
		method := http.MethodGet
		if path != "/v1/records" {
			method = http.MethodPost
		}
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t, 3)
	postRecords(t, ts, genRecords(5, 20))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("healthz content type %q", ct)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status %q", hr.Status)
	}
	if hr.GoVersion == "" {
		t.Error("missing go_version")
	}
	if hr.UptimeSeconds < 0 {
		t.Errorf("uptime %g", hr.UptimeSeconds)
	}
	if hr.Records != 20 || hr.K != 3 || hr.Dim != 2 || hr.Groups < 1 {
		t.Errorf("health counts %+v", hr)
	}
}

// TestWrongMethodEveryRoute sends every route the method it does not
// serve. Each answers 405 with an Allow header, the JSON envelope naming
// the required method and the echoed request id, and counts as a 4xx —
// before any "not enabled" 404, since this server runs no recorder,
// journal or tracer.
func TestWrongMethodEveryRoute(t *testing.T) {
	s, err := New(Config{Dim: 2, Condenser: newCondenser(t, 3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range routes {
		wrong := http.MethodPost
		if rt.method == http.MethodPost {
			wrong = http.MethodGet
		}
		req := httptest.NewRequest(wrong, rt.path, nil)
		req.Header.Set("X-Request-ID", "wrong-method")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		want := fmt.Sprintf(`{"error":"%s required","request_id":"wrong-method"}`+"\n", rt.method)
		if h := rec.Header(); rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != want ||
			h.Get("Allow") != rt.method || h.Get("X-Request-ID") != "wrong-method" {
			t.Errorf("%s %s: %d %v %q, want 405 Allow %s %q", wrong, rt.path, rec.Code, h, rec.Body, rt.method, want)
		}
	}
	var prom bytes.Buffer
	if err := s.reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, rt := range routes {
		if line := fmt.Sprintf(`http_requests_total{path=%q,code="4xx"} 1`, rt.path); !strings.Contains(prom.String(), line) {
			t.Errorf("metrics lack %s", line)
		}
	}
}

// TestErrorEnvelope pins every 4xx path to the JSON error envelope with
// the right status code: bad JSON, wrong method, dimension mismatch, and
// the cancelled-context 408.
func TestErrorEnvelope(t *testing.T) {
	ts := newTestServer(t, 3)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		cancel bool
		want   int
	}{
		{name: "bad json", method: http.MethodPost, path: "/v1/records", body: `{"records": [[1,`, want: http.StatusBadRequest},
		{name: "empty batch", method: http.MethodPost, path: "/v1/records", body: `{"records": []}`, want: http.StatusBadRequest},
		{name: "dimension mismatch", method: http.MethodPost, path: "/v1/records", body: `{"records": [[1,2,3]]}`, want: http.StatusBadRequest},
		{name: "non-finite record", method: http.MethodPost, path: "/v1/records", body: `{"records": [[1, 1e999]]}`, want: http.StatusBadRequest},
		{name: "wrong method records", method: http.MethodGet, path: "/v1/records", want: http.StatusMethodNotAllowed},
		{name: "wrong method snapshot", method: http.MethodPost, path: "/v1/snapshot", want: http.StatusMethodNotAllowed},
		{name: "wrong method stats", method: http.MethodPost, path: "/v1/stats", want: http.StatusMethodNotAllowed},
		{name: "wrong method metrics", method: http.MethodPost, path: "/metrics", want: http.StatusMethodNotAllowed},
		{name: "wrong method healthz", method: http.MethodPost, path: "/healthz", want: http.StatusMethodNotAllowed},
		{name: "bad snapshot seed", method: http.MethodGet, path: "/v1/snapshot?seed=banana", want: http.StatusBadRequest},
		{name: "cancelled context", method: http.MethodPost, path: "/v1/records", body: `{"records": [[1,2]]}`, cancel: true, want: http.StatusRequestTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cancel {
				// A cancelled client context would abort the client side
				// before the response arrives; go through the handler
				// directly instead.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)).WithContext(ctx)
				rec := httptest.NewRecorder()
				serverFromTS(t, ts).ServeHTTP(rec, req)
				assertEnvelope(t, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), tc.want)
				return
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			if _, err := body.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			assertEnvelope(t, resp.StatusCode, resp.Header.Get("Content-Type"), body.Bytes(), tc.want)
			if tc.want == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}
}

// assertEnvelope checks one error response: expected status, JSON content
// type, and a non-empty {"error": ...} body.
func assertEnvelope(t *testing.T, status int, contentType string, body []byte, want int) {
	t.Helper()
	if status != want {
		t.Errorf("status %d, want %d", status, want)
	}
	if !strings.HasPrefix(contentType, "application/json") {
		t.Errorf("content type %q, want application/json", contentType)
	}
	var env errorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body is not the JSON envelope: %v\n%s", err, body)
	}
	if env.Error == "" {
		t.Error("empty error message in envelope")
	}
}

// testServers maps httptest servers back to their Server for direct
// handler invocation (cancelled-context cases).
var testServers = map[string]*Server{}

func serverFromTS(t *testing.T, ts *httptest.Server) *Server {
	t.Helper()
	s, ok := testServers[ts.URL]
	if !ok {
		t.Fatal("no Server registered for test server")
	}
	return s
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, 5)
	postRecords(t, ts, genRecords(6, 60))
	if resp, err := http.Get(ts.URL + "/v1/snapshot"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		`# TYPE http_request_seconds histogram`,
		`http_request_seconds_bucket{path="/v1/records",le="+Inf"}`,
		`http_requests_total{path="/v1/records",code="2xx"} 1`,
		`# TYPE condense_stage_seconds histogram`,
		`condense_stage_seconds_count{stage="neighbor_search",backend="centroid-kdtree"}`,
		`condense_stage_seconds_count{stage="eigen"}`,
		`condense_stage_seconds_count{stage="synthesis"}`,
		`condense_groups_formed_total`,
		`condense_split_events_total`,
		`condense_stream_records_total 60`,
		`condense_groups `,
		`http_in_flight`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ts := newTestServer(t, 4)
	postRecords(t, ts, genRecords(4, 50))

	resp, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status %d", resp.StatusCode)
	}
	cond, err := core.ReadCondensation(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cond.TotalCount() != 50 || cond.K() != 4 {
		t.Errorf("checkpoint: %d records, k=%d", cond.TotalCount(), cond.K())
	}

	// A new server seeded from the checkpoint carries the state forward.
	s2, err := New(Config{Condenser: newCondenser(t, cond.K(), 9), Initial: cond})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	statsResp, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Records != 50 {
		t.Errorf("restored server has %d records, want 50", sr.Records)
	}
}

func TestConcurrentIngest(t *testing.T) {
	ts := newTestServer(t, 5)
	const workers, perWorker = 8, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			body, _ := json.Marshal(map[string]interface{}{"records": genRecords(uint64(w+10), perWorker)})
			resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Records != workers*perWorker {
		t.Errorf("after concurrent ingest: %d records, want %d", sr.Records, workers*perWorker)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0, Condenser: newCondenser(t, 2, 0)}); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := New(Config{Dim: 2}); err == nil {
		t.Error("a Config with neither Engine nor Condenser accepted")
	}
}

// TestIngestCancelledContext verifies the ingestion path honours the
// request context: a pre-cancelled request admits no records.
func TestIngestCancelledContext(t *testing.T) {
	s, err := New(Config{Dim: 2, Condenser: newCondenser(t, 3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]interface{}{"records": genRecords(8, 40)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Errorf("status = %d, want %d", rec.Code, http.StatusRequestTimeout)
	}
	// Nothing must have been condensed.
	statsReq := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	statsRec := httptest.NewRecorder()
	s.ServeHTTP(statsRec, statsReq)
	var sr statsResponse
	if err := json.NewDecoder(statsRec.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Records != 0 {
		t.Errorf("%d records condensed under a cancelled context, want 0", sr.Records)
	}
}

// TestConfigCondenser exercises the facade-based configuration path.
func TestConfigCondenser(t *testing.T) {
	c, err := core.NewCondenser(4, core.WithSeed(9), core.WithSynthesis(core.SynthesisGaussian))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Dim: 2, Condenser: c})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	if resp := postRecords(t, ts, genRecords(9, 30)); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.K != 4 || sr.Records != 30 {
		t.Errorf("stats %+v, want k=4 records=30", sr)
	}
}

// TestBatchIngestMatchesSequential pins the server's batch ingest to the
// engine's determinism contract: the checkpoint after a POSTed batch is
// byte-identical to a local condenser fed the same records one at a time,
// each routed to the group the paper's linear scan picks.
func TestBatchIngestMatchesSequential(t *testing.T) {
	ts := newTestServer(t, 5)
	records := genRecords(77, 400)
	if resp := postRecords(t, ts, records); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	c, err := core.NewCondenser(5, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := c.Dynamic(2)
	if err != nil {
		t.Fatal(err)
	}
	addCheckingScan(t, ref, records)
	var want bytes.Buffer
	if _, err := ref.Condensation().WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("server batch-ingested checkpoint differs from sequential Add loop")
	}
}

// addCheckingScan feeds records to a one-shard engine one Add at a time.
// Before each Add it finds the nearest group centroid by kernel.ArgminFlat,
// the paper's linear scan with ties to the lower slot, and after it checks
// that this group took the record: it grew by one, or it reached 2k and
// split into itself and one new group.
func addCheckingScan(t *testing.T, d *core.Dynamic, records [][]float64) {
	t.Helper()
	var arena []float64
	for i, row := range records {
		before := d.Condensation().Groups()
		arena = arena[:0]
		for _, g := range before {
			m, err := g.Mean()
			if err != nil {
				t.Fatal(err)
			}
			arena = append(arena, m...)
		}
		want, _ := kernel.ArgminFlat(row, arena)
		if err := d.Add(mat.Vector(row)); err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			continue // the record founded the first group
		}
		after := d.Condensation().Groups()
		grew := len(after) == len(before) && after[want].N() == before[want].N()+1
		split := len(after) == len(before)+1 && after[want].N()+after[len(before)].N() == before[want].N()+1
		if !grew && !split {
			t.Fatalf("record %d: the scan picks group %d, but the engine put it elsewhere", i, want)
		}
	}
}

// TestConcurrentReadsAndWrites hammers a 1-shard server with interleaved
// batch POSTs and read-only GETs. The server holds no lock of its own, so
// under -race this proves the engine's shard lock alone orders them, and
// every snapshot served mid-load is a consistent cut: between k and 2k−1
// rows per group.
func TestConcurrentReadsAndWrites(t *testing.T) {
	const k = 4
	ts := newShardedServer(t, k, 1)
	postRecords(t, ts, genRecords(50, 40)) // non-empty so snapshot serves

	const writers, readers, rounds = 4, 6, 10
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < rounds; i++ {
				body, _ := json.Marshal(map[string]interface{}{"records": genRecords(uint64(100+w*rounds+i), 50)})
				resp, err := http.Post(ts.URL+"/v1/records", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST status %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}(w)
	}
	paths := []string{"/v1/stats", "/healthz", "/v1/snapshot?seed=3", "/v1/checkpoint"}
	for g := 0; g < readers; g++ {
		go func(g int) {
			for i := 0; i < rounds; i++ {
				path := paths[(g+i)%len(paths)]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s status %d", path, resp.StatusCode)
					return
				}
				if strings.HasPrefix(path, "/v1/snapshot") {
					var snap snapshotResponse
					if err := json.Unmarshal(body, &snap); err != nil {
						errs <- err
						return
					}
					if n := len(snap.Records); n < snap.Groups*k || n > snap.Groups*(2*k-1) {
						errs <- fmt.Errorf("snapshot of %d rows over %d groups breaks k = %d", n, snap.Groups, k)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if want := 40 + writers*rounds*50; sr.Records != want || !sr.KSatisfied || sr.Shards != 1 {
		t.Errorf("after concurrent load: %+v, want %d records, k satisfied, 1 shard", sr, want)
	}
}
