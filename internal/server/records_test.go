package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
)

// harnessBody is a POST /v1/records body shaped like the benchmark's:
// n records of dimension dim, encoded by encoding/json.
func harnessBody(t testing.TB, seed uint64, n, dim int) []byte {
	t.Helper()
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = 10 * r.Norm()
		}
	}
	body, err := json.Marshal(map[string]interface{}{"records": rows})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// referenceDecode is the oracle for decodeRecords: encoding/json into the
// [][]float64 shape, refusing data after the value, followed by the
// batch, dimension and finiteness checks the handler applies. parsed
// reports whether encoding/json alone accepted the body.
func referenceDecode(body []byte, dim, maxBatch int) (rows [][]float64, parsed, ok bool) {
	var req struct {
		Records [][]float64 `json:"records"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, false, false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\n\r")) != 0 {
		return nil, false, false
	}
	if len(req.Records) == 0 || len(req.Records) > maxBatch {
		return req.Records, true, false
	}
	for _, row := range req.Records {
		if len(row) != dim || !mat.Vector(row).IsFinite() {
			return req.Records, true, false
		}
	}
	return req.Records, true, true
}

func FuzzDecodeRecords(f *testing.F) {
	for _, tc := range badRecordsBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"records":[[1,2]]}`))
	f.Add([]byte(" \t\n{ \"records\" :\r[ [ -0 , 1.5e-3 ] , [2E+2,-0.0] ] }\n"))
	f.Add(harnessBody(f, 1, 1024, 8))
	const maxBatch = 1024
	f.Fuzz(func(t *testing.T, body []byte) {
		// Judge both decoders at the dimension the body's first row has,
		// so well-formed bodies reach the acceptance path. The cap keeps
		// the arena, batch limit times dimension, small.
		dim := 2
		if rows, parsed, _ := referenceDecode(body, 1, math.MaxInt); parsed && len(rows) > 0 && len(rows[0]) > 0 {
			dim = min(len(rows[0]), 16)
		}
		got, status, err := decodeRecords(body, dim, maxBatch)
		want, _, ok := referenceDecode(body, dim, maxBatch)
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with status %d: %v", status, err)
			}
			// encoding/json accepts null elements, data after the value,
			// and case-folded, escaped or repeated keys; the decoder
			// refuses them. Anything else encoding/json accepts, it must.
			plain := !bytes.Contains(body, []byte("null")) &&
				bytes.Count(body, []byte(`"`)) == 2 && bytes.Contains(body, []byte(`"records"`))
			if ok && plain {
				t.Fatalf("refused a body encoding/json accepts: %v", err)
			}
			return
		}
		if !ok {
			t.Fatalf("accepted a body encoding/json refuses: %d records", len(got))
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d records, encoding/json %d", len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("record %d value %d: %v, encoding/json %v", i, j, got[i][j], want[i][j])
				}
			}
		}
	})
}

// TestDecodeRecordsPrecedence pins which refusal a body breaking several
// rules gets: syntax, then empty, then batch size, then the first
// wrong-dimension record, each with its message.
func TestDecodeRecordsPrecedence(t *testing.T) {
	cases := []struct {
		name, body string
		status     int
		msg        string
	}{
		{"syntax beats batch size", `{"records": [[1,2],[1,2],[1,2],[1,2] x`, http.StatusBadRequest, "decoding body: "},
		{"syntax beats dimension", `{"records": [[1],[1,2,3],[null]]}`, http.StatusBadRequest, "decoding body: "},
		{"overflow is a decoding error", `{"records": [[1,2],[1,2],[1,2],[1,1e999]]}`, http.StatusBadRequest, "decoding body: number 1e999 does not fit a float64"},
		{"trailing data", `{"records": [[1,2]]} {}`, http.StatusBadRequest, "decoding body: data after the records object at offset 21"},
		{"empty", ` { "records" : [ ] } `, http.StatusBadRequest, "no records in request"},
		{"batch size beats dimension", `{"records": [[1],[1,2],[1,2],[1,2]]}`, http.StatusRequestEntityTooLarge, "batch of 4 exceeds limit 3"},
		{"first wrong dimension", `{"records": [[1,2],[],[1,2,3]]}`, http.StatusBadRequest, "record 1 has dimension 0, want 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, status, err := decodeRecords([]byte(tc.body), 2, 3)
			if err == nil {
				t.Fatalf("accepted %d records", len(recs))
			}
			if status != tc.status || !strings.HasPrefix(err.Error(), tc.msg) {
				t.Errorf("got %d %q, want %d %q…", status, err, tc.status, tc.msg)
			}
		})
	}
}

// TestDecodeRecordsArena checks the accepted shape: records share one
// arena but are capacity-bounded, so an append to one cannot overwrite
// its neighbour.
func TestDecodeRecordsArena(t *testing.T) {
	recs, _, err := decodeRecords([]byte(`{"records":[[1,2],[3,4],[5,6]]}`), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recs {
		if len(v) != 2 || cap(v) != 2 || v[0] != float64(2*i+1) || v[1] != float64(2*i+2) {
			t.Fatalf("record %d = %v (cap %d)", i, v, cap(v))
		}
	}
}

// onlyReader hides a body's length from net/http, so the client sends it
// chunked with no Content-Length.
type onlyReader struct{ io.Reader }

// TestRecordsBodyLimit checks the byte cap derived from the batch limit:
// a body over it is refused with 413 before it is parsed, whether the
// client declares its length or streams it chunked.
func TestRecordsBodyLimit(t *testing.T) {
	const dim, maxBatch = 2, 3
	s, err := New(Config{Engine: sharded(t, newCondenser(t, 2, 1), dim, 1), MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	// seenLength records the Content-Length the handler was given: -1 for
	// a chunked body.
	var seenLength int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenLength = r.ContentLength
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	limit := int(recordsBodyLimit(maxBatch, dim))
	if limit != maxBatch*dim*64+4096 {
		t.Fatalf("limit %d bytes", limit)
	}
	// padded is a valid one-record body padded with whitespace to n bytes.
	padded := func(n int) string {
		const rec = `{"records":[[1,2]]}`
		return rec + strings.Repeat(" ", n-len(rec))
	}
	cases := []struct {
		name    string
		body    io.Reader
		want    int
		wantLen int64
	}{
		{"at limit", strings.NewReader(padded(limit)), http.StatusOK, int64(limit)},
		{"padded over limit", strings.NewReader(padded(limit + 1)), http.StatusRequestEntityTooLarge, int64(limit + 1)},
		{"chunked at limit", onlyReader{strings.NewReader(padded(limit))}, http.StatusOK, -1},
		{"chunked over limit", onlyReader{strings.NewReader(padded(4 * limit))}, http.StatusRequestEntityTooLarge, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/records", tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if seenLength != tc.wantLen {
				t.Errorf("handler saw Content-Length %d, want %d", seenLength, tc.wantLen)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestRecordsHandlerAllocs bounds the allocations of one 1024-record POST
// through the whole handler, the request and recorder included.
// encoding/json spent about four per record; the decoder spends a fixed
// few per request. What is counted is the request path around the
// engine's zero-allocation apply, so three engine costs that do not
// belong to it are kept out: the audit reservoir is off (its sampled
// copies are its own cost), k exceeds every batch so no split runs, and
// routing runs on one worker, since the per-window fan-out allocates per
// core and would make the count depend on the machine.
func TestRecordsHandlerAllocs(t *testing.T) {
	const dim, n = 8, 1024
	c, err := core.NewCondenser(1<<20, core.WithSeed(1), core.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: sharded(t, c, dim, 1), AuditSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	body := harnessBody(t, 2, n, dim)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	allocs := testing.AllocsPerRun(20, post)
	t.Logf("%.0f allocations per %d-record POST", allocs, n)
	if allocs > 40 {
		t.Errorf("%.0f allocations per %d-record POST, want <= 40", allocs, n)
	}
}

// TestRecordsOverflowRefused replays the POST that used to overflow a
// routing distance to +Inf and panic inside the shard lock, after which
// every later POST hung: it must be refused with 400, and a following
// POST and stats read must complete. Values at ±core.MaxRecordMagnitude
// are accepted and stay servable; the next float beyond is refused.
func TestRecordsOverflowRefused(t *testing.T) {
	const b = core.MaxRecordMagnitude
	above := math.Nextafter(b, math.Inf(1))
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(ts *httptest.Server, body string) int {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/records", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(ts *httptest.Server, path string) int {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, shards := range []int{1, 4} {
		ts := newShardedServer(t, 2, shards)
		if got := post(ts, `{"records":[[1e160,1],[1e160,2],[1,1e160],[2,1e160]]}`); got != http.StatusBadRequest {
			t.Fatalf("shards=%d: overflowing batch status %d, want 400", shards, got)
		}
		if got := post(ts, `{"records":[[1,1],[1,2],[2,1],[2,2]]}`); got != http.StatusOK {
			t.Fatalf("shards=%d: POST after the refusal status %d, want 200", shards, got)
		}
		if got := get(ts, "/v1/stats"); got != http.StatusOK {
			t.Fatalf("shards=%d: stats after the refusal status %d", shards, got)
		}

		atBound := fmt.Sprintf(`{"records":[[%g,1],[%g,2],[1,%g],[2,%g],[-%g,-%g]]}`, b, b, b, b, b, b)
		if got := post(ts, atBound); got != http.StatusOK {
			t.Fatalf("shards=%d: values at the bound status %d, want 200", shards, got)
		}
		if got := get(ts, "/v1/snapshot"); got != http.StatusOK {
			t.Fatalf("shards=%d: snapshot of values at the bound status %d, want 200", shards, got)
		}
		beyond := fmt.Sprintf(`{"records":[[1,1],[%s,1]]}`, strconv.FormatFloat(-above, 'g', -1, 64))
		if got := post(ts, beyond); got != http.StatusBadRequest {
			t.Fatalf("shards=%d: the next float beyond the bound status %d, want 400", shards, got)
		}
	}
}
