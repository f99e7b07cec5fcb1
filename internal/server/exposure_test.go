package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// FuzzReleaseExposure is the exposure half of the disclosure oracle: no
// response of any registered route may carry a single ingested value. It
// drives a real Server — journal, tracer, flight recorder and watchdog
// on — at 1 or 4 shards and k from 2 to 10 with 1 to 4k records, POSTed
// singly and in batches or fed to the engine's Add, and reads every route
// in the route table (every /debug/bundle entry included, heap.pprof
// gunzipped) after half the records and again after all. It searches
// each body for every ingested value's 8 raw bytes, in both byte orders,
// and for its shortest 'g', 'f' and JSON text.
//
// Each case also runs checkPermutationTwins, the twin half: two servers
// fed the same records in two orders must serve byte-identical
// release-derived bodies.
//
// The seed corpus starts with the pure-stream bootstrap: k = 10 and one
// record, which every snapshot released verbatim before the k-gate. The
// entry with seed 7 releases one group of 5 records whose twins POST
// different subsets of them: a KS distance measured against a sample of
// POSTed raw records told the twins apart. The last entry (4 shards, k =
// 2, 3 records) orders one shard's arrivals differently among the
// others': a group's birth generation, the engine generation of its
// founding arrival, told the twins apart.
func FuzzReleaseExposure(f *testing.F) {
	// seed, shards (even: 1, odd: 4), k, records, largest POST batch
	f.Add(uint64(1), uint8(0), uint8(10), uint16(1), uint8(1))
	f.Add(uint64(1), uint8(1), uint8(10), uint16(1), uint8(1))
	f.Add(uint64(2), uint8(0), uint8(2), uint16(8), uint8(3))
	f.Add(uint64(3), uint8(1), uint8(5), uint16(20), uint8(7))
	f.Add(uint64(4), uint8(1), uint8(3), uint16(12), uint8(1))
	f.Add(uint64(5), uint8(0), uint8(7), uint16(28), uint8(8))
	f.Add(uint64(6), uint8(1), uint8(10), uint16(40), uint8(8))
	f.Add(uint64(7), uint8(0), uint8(3), uint16(5), uint8(1))
	f.Add(uint64(16), uint8(1), uint8(2), uint16(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, shardSel, kSel uint8, nSel uint16, batchSel uint8) {
		shards := 1 + 3*int(shardSel%2)
		k := int(kSel)
		if k < 2 || k > 10 {
			k = 2 + k%9
		}
		n := int(nSel)
		if n < 1 || n > 4*k {
			n = 1 + n%(4*k)
		}
		maxBatch := 1 + int(batchSel)%8
		checkExposure(t, seed, shards, k, n, maxBatch)
		checkPermutationTwins(t, seed, shards, k, 1+(n-1)%(2*k-1))
	})
}

// checkPermutationTwins runs one twin case: two servers get the same n <
// 2k dim-2 records in two orders, each record POSTed alone or fed to the
// engine's Add by a choice each server makes on its own. Values are
// multiples of 1/8 in [−4, 4], so every moment sum is exact in any order
// and the twins' releases are bit-equal; so must be every body derived
// from them. The second order is a full shuffle, so at 4 shards it also
// interleaves the shards differently: nothing served may depend on the
// engine generation of an arrival.
func checkPermutationTwins(t *testing.T, seed uint64, shards, k, n int) {
	r := rng.New(seed)
	records := make([][]float64, n)
	for i := range records {
		records[i] = []float64{float64(r.IntN(65)-32) / 8, float64(r.IntN(65)-32) / 8}
	}
	permuted := append([][]float64(nil), records...)
	r.Shuffle(n, func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })

	feed := func(order [][]float64) *Server {
		s, err := New(Config{Engine: sharded(t, newCondenser(t, k, seed), 2, shards), Journal: telemetry.NewJournal(64)})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range order {
			if r.IntN(2) == 0 {
				postBatch(t, s, [][]float64{x})
			} else if err := s.Engine().Add(x); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	requireTwins(t, fmt.Sprintf("shards=%d k=%d n=%d", shards, k, n), feed(records), feed(permuted))
}

// TestReleaseMomentTwins serves two moment twins: dim-1 streams {0, 3, 3}
// and {1, 1, 4}, POSTed one record at a time to one-shard pure-stream
// servers with k = 3. Both found one group with n = 3, Fs = 6 and Sc = 18,
// so their releases are equal, and every body derived from the release
// must be byte-identical. A value kept from a raw record, such as the
// distance from a group's birth centroid or a KS distance to a sample of
// the POSTed records, differs.
func TestReleaseMomentTwins(t *testing.T) {
	serve := func(values ...float64) *Server {
		s, err := New(Config{Engine: sharded(t, newCondenser(t, 3, 1), 1, 1), Journal: telemetry.NewJournal(64)})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range values {
			postBatch(t, s, [][]float64{{v}})
		}
		return s
	}
	bodies := requireTwins(t, "moment twins", serve(0, 3, 3), serve(1, 1, 4))
	var gr groupsResponse
	if err := json.Unmarshal(bytes.TrimPrefix(bodies["GET /v1/groups"], []byte("200 ")), &gr); err != nil {
		t.Fatal(err)
	}
	if len(gr.Groups) != 1 || gr.Groups[0].Size != 3 {
		t.Fatalf("want one released group of 3 records: %s", bodies["GET /v1/groups"])
	}
}

// requireTwins fails unless a and b serve byte-identical release-derived
// bodies (see releaseBodies), and returns a's.
func requireTwins(t *testing.T, what string, a, b *Server) map[string][]byte {
	t.Helper()
	got, want := releaseBodies(t, a), releaseBodies(t, b)
	if len(got) != len(want) {
		t.Fatalf("%s: the twins serve %d and %d release-derived bodies", what, len(got), len(want))
	}
	reqs := make([]string, 0, len(got))
	for req := range got {
		reqs = append(reqs, req)
	}
	sort.Strings(reqs)
	for _, req := range reqs {
		if body := got[req]; !bytes.Equal(body, want[req]) {
			t.Errorf("%s: %s differs between twins:\n%s\n%s", what, req, body, want[req])
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return got
}

// releaseBodies returns every response s derives from its release, keyed
// by request and prefixed by status: the seed-1 snapshot, the checkpoint,
// stats and audit merged and by shard, the group list and each listed
// group, an explain, the release ledger with each event's time cleared,
// the bundle's audit.json, and the condense_audit_* and condense_release_*
// lines of /metrics (its other lines carry timings). It first runs one
// audit pass, as condenserd's background auditor does.
// Requests carry a fixed request id, so error envelopes compare too.
func releaseBodies(t *testing.T, s *Server) map[string][]byte {
	t.Helper()
	if _, err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	do := func(method, target, body string) []byte {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("X-Request-ID", "twin")
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		out[method+" "+target] = append([]byte(strconv.Itoa(w.Code)+" "), w.Body.Bytes()...)
		return w.Body.Bytes()
	}
	for _, target := range []string{"/v1/snapshot?seed=1", "/v1/checkpoint", "/v1/stats", "/v1/stats?by_shard", "/v1/audit", "/v1/audit?by_shard"} {
		do(http.MethodGet, target, "")
	}
	do(http.MethodPost, "/v1/explain", `{"record":[`+strings.Repeat("0.5,", s.dim-1)+`0.5],"top":8}`)
	var gr groupsResponse
	if err := json.Unmarshal(do(http.MethodGet, "/v1/groups", ""), &gr); err != nil {
		t.Fatal(err)
	}
	for _, g := range gr.Groups {
		do(http.MethodGet, "/v1/groups/"+strconv.FormatUint(g.ID, 10), "")
	}
	var er eventsResponse
	if err := json.Unmarshal(do(http.MethodGet, "/v1/events", ""), &er); err != nil {
		t.Fatal(err)
	}
	for i := range er.Events {
		er.Events[i].Time = time.Time{}
	}
	cleared, err := json.Marshal(er)
	if err != nil {
		t.Fatal(err)
	}
	out["GET /v1/events"] = cleared
	out["bundle audit.json"] = unpackBundle(t, do(http.MethodGet, "/debug/bundle", ""))["audit.json"]
	delete(out, "GET /debug/bundle")
	var lines []string
	for _, line := range strings.Split(string(do(http.MethodGet, "/metrics", "")), "\n") {
		if strings.HasPrefix(line, "condense_audit_") || strings.HasPrefix(line, "condense_release_") {
			lines = append(lines, line)
		}
	}
	out["GET /metrics"] = []byte(strings.Join(lines, "\n"))
	return out
}

// checkExposure runs one exposure-oracle case.
func checkExposure(t *testing.T, seed uint64, shards, k, n, maxBatch int) {
	reqs := exposureRequests(shards, n)
	for _, rt := range routes {
		if len(reqs[rt.path]) == 0 {
			t.Fatalf("route %s is not read by the exposure oracle", rt.path)
		}
	}
	if len(reqs) != len(routes) {
		t.Fatalf("the oracle reads %d routes, the route table registers %d", len(reqs), len(routes))
	}

	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, 16)
	wd := telemetry.NewWatchdog(reg, telemetry.Nop(), HealthRules(k, shards)...)
	s, err := New(Config{
		Engine:    sharded(t, newCondenser(t, k, seed), 2, shards),
		Telemetry: reg, Recorder: rec, Watchdog: wd,
		Journal: telemetry.NewJournal(256), Tracer: telemetry.NewTracer(256, 1),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Full-precision values, never integer-valued, so a match can only
	// be the value itself.
	r := rng.New(seed)
	value := func() float64 {
		for {
			if v := r.Norm(); v != math.Trunc(v) {
				return v
			}
		}
	}
	var needles [][]byte
	check := func(what string, body []byte) {
		t.Helper()
		for _, nd := range needles {
			if bytes.Contains(body, nd) {
				t.Fatalf("shards=%d k=%d n=%d: %s exposes an ingested value as %q", shards, k, n, what, nd)
			}
		}
	}
	serve := func(req *http.Request) []byte {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w.Body.Bytes()
	}
	// Records arrive in batches, about a third of them through the
	// engine's own Add (as an embedding process would feed it) and the
	// rest POSTed. The full route sweep runs once the first half is in
	// and again at the end.
	sweep := func(stage string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if _, err := s.Audit(); err != nil {
				t.Fatal(err)
			}
			rec.Scrape()
			wd.Evaluate(rec)
		}
		for path, rs := range exposureRequests(shards, n) {
			for _, req := range rs {
				body := serve(req)
				what := stage + ": " + req.Method + " " + req.URL.String()
				check(what, body)
				if path == "/debug/bundle" {
					for name, entry := range unpackBundle(t, body) {
						check(what+" "+name, entry)
					}
				}
			}
		}
	}
	swept := false
	for sent := 0; sent < n; {
		batch := make([][]float64, min(1+r.IntN(maxBatch), n-sent))
		for i := range batch {
			batch[i] = []float64{value(), value()}
			for _, v := range batch[i] {
				needles = append(needles, valueForms(v)...)
			}
		}
		sent += len(batch)
		if r.IntN(3) == 0 {
			for _, x := range batch {
				if err := s.Engine().Add(x); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			body, err := json.Marshal(map[string]any{"records": batch})
			if err != nil {
				t.Fatal(err)
			}
			check("POST /v1/records", serve(httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body))))
		}
		if !swept && sent >= n/2 {
			sweep("half")
			swept = true
		}
	}
	sweep("end")
}

// valueForms is every form in which a leaked value could appear in a
// response body.
func valueForms(v float64) [][]byte {
	var le, be [8]byte
	binary.LittleEndian.PutUint64(le[:], math.Float64bits(v))
	binary.BigEndian.PutUint64(be[:], math.Float64bits(v))
	js, err := appendFloat(nil, v)
	if err != nil {
		panic(err)
	}
	return [][]byte{
		le[:], be[:], js,
		[]byte(strconv.FormatFloat(v, 'g', -1, 64)),
		[]byte(strconv.FormatFloat(v, 'f', -1, 64)),
	}
}

// exposureRequests is the requests the oracle sends each route, keyed by
// route-table path. /v1/groups/ probes every id the shards could have
// allocated for n records, so a group withheld from /v1/groups is still
// looked up.
func exposureRequests(shards, n int) map[string][]*http.Request {
	get := func(urls ...string) []*http.Request {
		var rs []*http.Request
		for _, u := range urls {
			rs = append(rs, httptest.NewRequest(http.MethodGet, u, nil))
		}
		return rs
	}
	var shardStats, shardAudits, groupIDs []string
	for i := 0; i < shards; i++ {
		shardStats = append(shardStats, "/v1/stats?shard="+strconv.Itoa(i))
		shardAudits = append(shardAudits, "/v1/audit?shard="+strconv.Itoa(i))
		for seq := uint64(1); seq <= uint64(2*n+2); seq++ {
			id := uint64(i)<<48 | seq
			groupIDs = append(groupIDs, "/v1/groups/"+strconv.FormatUint(id, 10))
		}
	}
	explain := httptest.NewRequest(http.MethodPost, "/v1/explain",
		bytes.NewReader([]byte(`{"record":[0.5,-0.25],"top":8}`)))
	return map[string][]*http.Request{
		"/v1/records":      get("/v1/records"),
		"/v1/snapshot":     get("/v1/snapshot", "/v1/snapshot?seed=2", "/v1/snapshot?seed=7"),
		"/v1/stats":        append(get("/v1/stats", "/v1/stats?by_shard"), get(shardStats...)...),
		"/v1/audit":        append(get("/v1/audit", "/v1/audit?by_shard"), get(shardAudits...)...),
		"/v1/checkpoint":   get("/v1/checkpoint"),
		"/v1/history":      get("/v1/history"),
		"/v1/health/rules": get("/v1/health/rules"),
		"/v1/events":       get("/v1/events"),
		"/v1/groups":       get("/v1/groups"),
		"/v1/groups/":      get(groupIDs...),
		"/v1/explain":      {explain},
		"/healthz":         get("/healthz"),
		"/metrics":         get("/metrics"),
		"/debug/trace":     get("/debug/trace"),
		"/debug/bundle":    get("/debug/bundle"),
	}
}

// unpackBundle unpacks a /debug/bundle tar.gz into its entries, adding
// heap.pprof's gunzipped profile as "heap.pprof (gunzipped)".
func unpackBundle(t *testing.T, body []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		entries[hdr.Name] = data
	}
	heap, err := gzip.NewReader(bytes.NewReader(entries["heap.pprof"]))
	if err != nil {
		t.Fatalf("heap.pprof: %v", err)
	}
	if entries["heap.pprof (gunzipped)"], err = io.ReadAll(heap); err != nil {
		t.Fatal(err)
	}
	return entries
}
