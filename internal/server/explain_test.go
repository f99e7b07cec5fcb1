package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/telemetry"
)

// newExplainServer builds a server with the lifecycle journal attached
// (plus any extra config the caller mutates in).
func newExplainServer(t *testing.T, shards int, mutate func(*Config)) (*httptest.Server, *telemetry.Journal) {
	t.Helper()
	jr := telemetry.NewJournal(512)
	condenser, err := core.NewCondenser(5, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: sharded(t, condenser, 2, shards), Journal: jr}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	testServers[ts.URL] = s
	t.Cleanup(func() {
		delete(testServers, ts.URL)
		ts.Close()
	})
	return ts, jr
}

// TestEventsEndpoint: a read installs a release, and the next read after
// more records diffs against it, so the ledger carries lineage across a
// split — a retired id is the parent of an id released at the same
// generation — and the replacement of the release that served stats.
func TestEventsEndpoint(t *testing.T) {
	ts, _ := newExplainServer(t, 1, nil)
	postRecords(t, ts, genRecords(71, 60))
	getJSON(t, ts.URL+"/v1/stats", nil)
	postRecords(t, ts, genRecords(72, 60))

	var er eventsResponse
	if resp := getJSON(t, ts.URL+"/v1/events", &er); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events: %d", resp.StatusCode)
	}
	if er.Capacity != 512 || er.Recorded == 0 || len(er.Events) == 0 {
		t.Fatalf("events response %+v", er)
	}
	kinds := map[string]int{}
	retired := map[uint64]uint64{} // id → generation
	for _, e := range er.Events {
		kinds[e.Type]++
		if e.Type == telemetry.EventGroupRetired {
			retired[e.Group] = e.Generation
		}
	}
	lineage := false
	for _, e := range er.Events {
		if gen, ok := retired[e.Parent]; ok && e.Type == telemetry.EventGroupReleased && gen == e.Generation {
			lineage = true
		}
	}
	if kinds[telemetry.EventGroupReleased] == 0 || kinds[telemetry.EventReleaseReplaced] != 1 || !lineage {
		t.Fatalf("two releases 60 records apart recorded no split lineage or replacement: %v", kinds)
	}

	// The stats read built an artifact on the first release, which the
	// events read replaced; the replacement names no shard.
	var replaced eventsResponse
	resp := getJSON(t, ts.URL+"/v1/events?type=release_replaced", &replaced)
	if resp.StatusCode != http.StatusOK || len(replaced.Events) == 0 {
		t.Fatalf("release_replaced filter: status %d, %d events", resp.StatusCode, len(replaced.Events))
	}
	if e := replaced.Events[len(replaced.Events)-1]; e.Type != telemetry.EventReleaseReplaced || e.Shard != telemetry.JournalShardNone {
		t.Fatalf("release_replaced event %+v", e)
	}

	var filtered eventsResponse
	getJSON(t, ts.URL+"/v1/events?type=group_retired&last=2", &filtered)
	if len(filtered.Events) == 0 || len(filtered.Events) > 2 {
		t.Fatalf("type=group_retired&last=2 returned %d events", len(filtered.Events))
	}
	for _, e := range filtered.Events {
		if e.Type != telemetry.EventGroupRetired || e.Shard != 0 || e.Detail != "" {
			t.Fatalf("type=group_retired returned %+v", e)
		}
	}

	for path, want := range map[string]int{
		"/v1/events?type=splitz":          http.StatusBadRequest,
		"/v1/events?type=split":           http.StatusBadRequest,
		"/v1/events?type=group_created":   http.StatusBadRequest,
		"/v1/events?type=index_rebuild":   http.StatusBadRequest,
		"/v1/events?last=-1":              http.StatusBadRequest,
		"/v1/events?last=bogus":           http.StatusBadRequest,
		"/v1/events?type=group_retired,x": http.StatusBadRequest,
	} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestEventsLedgerReplaysRelease: the release ledger is a function of the
// installed releases. After every read, replaying /v1/events in seq order
// — group_released adds an id, group_retired drops it — gives exactly the
// ids /v1/groups serves, and every event carries the generation of a
// release a read was served from. It runs at 1 and 4 shards, from a pure
// stream and from a base holding one initial group below k, far from the
// rest: the stream splits the groups beside it first, and the far records
// POSTed last release it, which shifts the positions of the groups after
// it. A k = 10 server sent one record serves no group and records no
// event.
func TestEventsLedgerReplaysRelease(t *testing.T) {
	const k = 5
	for _, shards := range []int{1, 4} {
		for _, base := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/base=%v", shards, base), func(t *testing.T) {
				s := newLedgerServer(t, k, shards, base)
				served := map[uint64]bool{}
				slots := map[uint64]int{} // id → position in its shard at the previous read
				shifted := false
				for i, n := range []int{1, 3, 7, 40, 1, 90, 13, 200, 2, 64, 16} {
					records := genRecords(uint64(100+i), n)
					if i == 10 {
						records = farRecords(uint64(100+i), n)
					}
					postBatch(t, s, records)
					var gr groupsResponse
					getInProcess(t, s, "/v1/groups", &gr)
					served[gr.Generation] = true
					pos := map[int]int{}
					for _, g := range gr.Groups {
						if at, ok := slots[g.ID]; ok && at != pos[g.Shard] {
							shifted = true
						}
						slots[g.ID] = pos[g.Shard]
						pos[g.Shard]++
					}
					held := replayLedger(t, s)
					if len(held) != len(gr.Groups) {
						t.Fatalf("read %d: the ledger holds %d ids, /v1/groups serves %d", i, len(held), len(gr.Groups))
					}
					for _, g := range gr.Groups {
						if !held[g.ID] {
							t.Fatalf("read %d: /v1/groups serves %d, which the ledger does not hold", i, g.ID)
						}
					}
					for _, e := range ledgerEvents(t, s) {
						if !served[e.Generation] {
							t.Fatalf("read %d: event %+v carries a generation no read was served from", i, e)
						}
					}
				}
				if g, n := s.release().Withheld(); base && (g != 0 || n != 0 || !shifted) {
					t.Fatalf("the base's group below k is withheld (%d groups, %d records) or shifted no position (%v)", g, n, shifted)
				}
			})
		}
	}
	t.Run("one record below k", func(t *testing.T) {
		s, err := New(Config{Engine: sharded(t, newCondenser(t, 10, 1), 2, 1), Journal: telemetry.NewJournal(64)})
		if err != nil {
			t.Fatal(err)
		}
		postBatch(t, s, genRecords(1, 1))
		var gr groupsResponse
		getInProcess(t, s, "/v1/groups", &gr)
		var st statsResponse
		getInProcess(t, s, "/v1/stats", &st)
		if len(gr.Groups) != 0 || st.WithheldRecords != 1 {
			t.Fatalf("one record at k = 10: %d groups served, %d records withheld", len(gr.Groups), st.WithheldRecords)
		}
		if events := ledgerEvents(t, s); len(events) != 0 {
			t.Fatalf("one record at k = 10 recorded %+v", events)
		}
	})
}

// TestEventsLedgerConcurrent is TestEventsLedgerReplaysRelease under
// concurrency: one goroutine POSTs while several read /v1/groups,
// /v1/events and /v1/snapshot, so installs race with each other and with
// hits. Once they stop, the replayed ledger matches /v1/groups.
func TestEventsLedgerConcurrent(t *testing.T) {
	s := newLedgerServer(t, 5, 4, true)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i, target := range []string{"/v1/groups", "/v1/events", "/v1/snapshot?seed=1", "/v1/events?type=group_retired"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
				if w.Code != http.StatusOK && !(i == 2 && w.Code == http.StatusConflict) {
					t.Errorf("GET %s: %d %s", target, w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		postBatch(t, s, genRecords(uint64(200+i), 1+i%17))
	}
	close(done)
	readers.Wait()
	var gr groupsResponse
	getInProcess(t, s, "/v1/groups", &gr)
	held := replayLedger(t, s)
	if len(held) != len(gr.Groups) {
		t.Fatalf("the ledger holds %d ids, /v1/groups serves %d", len(held), len(gr.Groups))
	}
	for _, g := range gr.Groups {
		if !held[g.ID] {
			t.Fatalf("/v1/groups serves %d, which the ledger does not hold", g.ID)
		}
	}
}

// newLedgerServer builds a journaled server at level k, empty or over a
// base whose last initial group holds 3 < k records near (40, 40).
func newLedgerServer(t *testing.T, k, shards int, base bool) *Server {
	t.Helper()
	eng := sharded(t, newCondenser(t, k, 3), 2, shards)
	if base {
		// Under seed 4 no static pick lands on a far record, so the three
		// are left over and form the last group.
		c, err := core.NewCondenser(k, core.WithSeed(4), core.WithOptions(core.Options{Leftover: core.LeftoverOwnGroup}))
		if err != nil {
			t.Fatal(err)
		}
		var records []mat.Vector
		for _, x := range append(genRecords(9, 7*k), farRecords(9, 3)...) {
			records = append(records, x)
		}
		initial, err := c.Static(records)
		if err != nil {
			t.Fatal(err)
		}
		eng = shardedFrom(t, newCondenser(t, k, 3), initial, shards)
	}
	s, err := New(Config{Engine: eng, Journal: telemetry.NewJournal(1 << 14)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// farRecords returns n dim-2 records near (40, 40), far from genRecords'.
func farRecords(seed uint64, n int) [][]float64 {
	out := genRecords(seed, n)
	for _, x := range out {
		x[0], x[1] = 40+x[0]/8, 40+x[1]/8
	}
	return out
}

// getInProcess serves a GET of target through s's handler and decodes the
// 200 body into v. It reports failure with Error, so any goroutine may
// call it.
func getInProcess(t testing.TB, s *Server, target string, v any) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	if w.Code != http.StatusOK {
		t.Errorf("GET %s: %d %s", target, w.Code, w.Body.String())
		return
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Error(err)
	}
}

// ledgerEvents returns s's group_released and group_retired events,
// failing if the ring dropped any.
func ledgerEvents(t *testing.T, s *Server) []telemetry.JournalEvent {
	t.Helper()
	var er eventsResponse
	getInProcess(t, s, "/v1/events?type=group_released,group_retired", &er)
	if er.Dropped != 0 {
		t.Fatalf("the ledger dropped %d events", er.Dropped)
	}
	return er.Events
}

// replayLedger applies s's ledger in seq order and returns the ids it
// leaves held. An event that releases a held id or retires one not held,
// or whose generation is below an earlier event's, fails the test.
func replayLedger(t *testing.T, s *Server) map[uint64]bool {
	t.Helper()
	held := map[uint64]bool{}
	var gen uint64
	for _, e := range ledgerEvents(t, s) {
		if e.Generation < gen {
			t.Fatalf("event %+v follows one of generation %d", e, gen)
		}
		gen = e.Generation
		if released := e.Type == telemetry.EventGroupReleased; released == held[e.Group] {
			t.Fatalf("event %+v: id held before it is %v", e, held[e.Group])
		}
		held[e.Group] = !held[e.Group]
		if !held[e.Group] {
			delete(held, e.Group)
		}
	}
	return held
}

func TestEventsDisabled(t *testing.T) {
	ts := newTestServer(t, 5) // no journal configured
	resp := getJSON(t, ts.URL+"/v1/events", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("journal-less /v1/events: status %d, want 404", resp.StatusCode)
	}
}

func TestGroupsEndpoints(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts, _ := newExplainServer(t, shards, nil)
			postRecords(t, ts, genRecords(73, 150))

			var gr groupsResponse
			if resp := getJSON(t, ts.URL+"/v1/groups", &gr); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/groups: %d", resp.StatusCode)
			}
			if len(gr.Groups) == 0 {
				t.Fatal("no groups after 150 records")
			}
			ids := map[uint64]bool{}
			for _, gi := range gr.Groups {
				if gi.ID == 0 || ids[gi.ID] {
					t.Fatalf("bad or duplicate id in %+v", gi)
				}
				ids[gi.ID] = true
			}

			var det core.GroupDetail
			first := gr.Groups[0]
			url := fmt.Sprintf("%s/v1/groups/%d", ts.URL, first.ID)
			if resp := getJSON(t, url, &det); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d", url, resp.StatusCode)
			}
			if det.ID != first.ID || det.Size != first.Size || len(det.Centroid) != 2 {
				t.Fatalf("detail %+v does not match summary %+v", det, first)
			}

			if resp := getJSON(t, ts.URL+"/v1/groups/999999999", nil); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
			}
			if resp := getJSON(t, ts.URL+"/v1/groups/banana", nil); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
			}
		})
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _ := newExplainServer(t, 1, nil)
	postRecords(t, ts, genRecords(79, 100))

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	resp, body := post(`{"record": [0.25, -0.5], "top": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/explain: %d\n%s", resp.StatusCode, body)
	}
	var ex core.Explanation
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Outcome != core.ExplainAbsorb && ex.Outcome != core.ExplainSplit {
		t.Fatalf("outcome %q on a populated engine", ex.Outcome)
	}
	if ex.Routed == nil || len(ex.Candidates) == 0 || len(ex.Candidates) > 3 {
		t.Fatalf("explanation %+v", ex)
	}
	if ex.Routed.ID != ex.Candidates[0].ID {
		t.Fatal("routed is not the first candidate")
	}
	// top at the cap is served, and reads the same release: no more
	// candidates than the routed shard releases groups.
	resp, body = post(fmt.Sprintf(`{"record": [0.25, -0.5], "top": %d}`, core.ExplainMaxTop))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/explain at the top cap: %d\n%s", resp.StatusCode, body)
	}
	var full core.Explanation
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if want := min(full.Groups, core.ExplainMaxTop); len(full.Candidates) != want || full.Generation != ex.Generation {
		t.Fatalf("top=%d returned %d candidates of %d groups at generation %d, want %d at %d",
			core.ExplainMaxTop, len(full.Candidates), full.Groups, full.Generation, want, ex.Generation)
	}

	for body, want := range map[string]int{
		`{"record": [1.0]}`:                  http.StatusBadRequest, // wrong dim
		`{}`:                                 http.StatusBadRequest, // no record
		`{"record": [1, 2], "extra": true}`:  http.StatusBadRequest, // unknown field
		`not json`:                           http.StatusBadRequest,
		`{"record": [1e308, 1e308], "x":[]}`: http.StatusBadRequest,
		`{"record": [1, 2], "top": 65}`:      http.StatusBadRequest, // above core.ExplainMaxTop
	} {
		if resp, b := post(body); resp.StatusCode != want {
			t.Errorf("POST %s: status %d, want %d\n%s", body, resp.StatusCode, want, b)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/explain", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/explain: status %d, want 405", resp.StatusCode)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestExplainBodyLimit: /v1/explain reads at most the body /v1/records
// allows a one-record batch. An oversized body is refused 413 without
// being read when its Content-Length declares it, and after at most
// limit+1 bytes when it is chunked; a body at the limit still decodes.
func TestExplainBodyLimit(t *testing.T) {
	const dim = 2
	ts, _ := newExplainServer(t, 1, nil)
	s := testServers[ts.URL]
	postRecords(t, ts, genRecords(79, 100))
	limit := int(recordsBodyLimit(1, dim))
	huge := `{"record":[` + strings.Repeat("0.5,", 1<<16) + `0.5]}`
	valid := `{"record":[0.25,-0.5]}`
	cases := []struct {
		name   string
		body   string
		length int64 // -1 sends the body chunked
		want   int
		read   int // bytes the handler may read at most
	}{
		{"over limit", huge, int64(len(huge)), http.StatusRequestEntityTooLarge, 0},
		{"chunked over limit", huge, -1, http.StatusRequestEntityTooLarge, limit + 1},
		{"at limit", valid + strings.Repeat(" ", limit-len(valid)), int64(limit), http.StatusOK, limit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := &countingReader{r: strings.NewReader(tc.body)}
			req := httptest.NewRequest(http.MethodPost, "/v1/explain", body)
			req.ContentLength = tc.length
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body)
			}
			if tc.want == http.StatusRequestEntityTooLarge {
				var e errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("body exceeds %d bytes", limit); e.Error != want {
					t.Fatalf("error %q, want %q", e.Error, want)
				}
			}
			if body.n > tc.read {
				t.Fatalf("handler read %d body bytes, want at most %d", body.n, tc.read)
			}
		})
	}
}

func TestRequestIDEchoAndMint(t *testing.T) {
	ts, _ := newExplainServer(t, 1, nil)

	// A valid client id is echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("echoed request id %q, want client-abc-123", got)
	}

	// No id (and an invalid one) gets a fresh mint, distinct per request.
	minted := map[string]bool{}
	for _, hdr := range []string{"", "has space", strings.Repeat("x", 200)} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
		if hdr != "" {
			req.Header.Set("X-Request-ID", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" || id == hdr {
			t.Fatalf("invalid client id %q was not replaced (got %q)", hdr, id)
		}
		if minted[id] {
			t.Fatalf("request id %q minted twice", id)
		}
		minted[id] = true
	}

	// Error envelopes carry the id for correlation.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/groups/banana", nil)
	req.Header.Set("X-Request-ID", "corr-404")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.RequestID != "corr-404" {
		t.Fatalf("error envelope request_id %q, want corr-404", env.RequestID)
	}
}

func TestBundleEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(reg, 16)
	wd := telemetry.NewWatchdog(reg, nil, HealthRules(5, 1)...)
	tr := telemetry.NewTracer(0, 1)
	ts, _ := newExplainServer(t, 1, func(cfg *Config) {
		cfg.Telemetry = reg
		cfg.Recorder = rec
		cfg.Watchdog = wd
		cfg.Tracer = tr
	})
	postRecords(t, ts, genRecords(83, 80))
	rec.Scrape()

	resp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/bundle: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("bundle content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := bundleEntries(t, raw)
	want := []string{
		"audit.json", "buildinfo.txt", "goroutines.txt", "health_rules.json",
		"healthz.json", "heap.pprof", "history.json", "journal.json",
		"metrics.prom", "trace.json",
	}
	if !equalStrings(names, want) {
		t.Fatalf("bundle entries %v, want %v", names, want)
	}

	// The journal entry must decode back to real events.
	var er eventsResponse
	if err := json.Unmarshal(bundleEntry(t, raw, "journal.json"), &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Events) == 0 {
		t.Fatal("bundle journal.json has no events")
	}
}

// TestBundleMinimal: with every optional subsystem off, the bundle still
// ships the unconditional entries and nothing else.
func TestBundleMinimal(t *testing.T) {
	ts := newTestServer(t, 5)
	resp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := bundleEntries(t, raw)
	want := []string{
		"audit.json", "buildinfo.txt", "goroutines.txt",
		"healthz.json", "heap.pprof", "metrics.prom",
	}
	if !equalStrings(names, want) {
		t.Fatalf("minimal bundle entries %v, want %v", names, want)
	}
}

func bundleEntries(t *testing.T, raw []byte) []string {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	var names []string
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, hdr.Name)
	}
	sort.Strings(names)
	return names
}

func bundleEntry(t *testing.T, raw []byte, name string) []byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Name == name {
			b, err := io.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("bundle has no entry %q", name)
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
