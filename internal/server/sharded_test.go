package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"condensation/internal/audit"
	"condensation/internal/core"
)

// newShardedServer builds a test server over a freshly constructed sharded
// engine with the given shard count.
func newShardedServer(t *testing.T, k, shards int) *httptest.Server {
	t.Helper()
	condenser, err := core.NewCondenser(k, core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: sharded(t, condenser, 2, shards)})
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

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestShardedServerEndpoints exercises the sharded HTTP surface end to
// end: splits in the ingest response, shard counts in health and stats,
// the ?shard= and ?by_shard breakdowns on stats and audit, and the
// per-shard engine metric labels.
func TestShardedServerEndpoints(t *testing.T) {
	const k, shards = 5, 4
	ts := newShardedServer(t, k, shards)
	resp := postRecords(t, ts, genRecords(1, 800))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var rr recordsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != 800 || rr.Groups < shards || rr.Splits < 1 {
		t.Fatalf("ingest response %+v", rr)
	}

	var hr healthResponse
	getJSON(t, ts.URL+"/healthz", &hr)
	if hr.Shards != shards || hr.Records != 800 {
		t.Fatalf("health %+v", hr)
	}

	var sr statsResponse
	getJSON(t, ts.URL+"/v1/stats?by_shard", &sr)
	if sr.Shards != shards || sr.Records != 800 || sr.Splits != rr.Splits || !sr.KSatisfied {
		t.Fatalf("stats %+v", sr)
	}
	if len(sr.ByShard) != shards {
		t.Fatalf("by_shard has %d entries, want %d", len(sr.ByShard), shards)
	}
	sum := 0
	for i, st := range sr.ByShard {
		if st.Shard != i || st.Records == 0 || !st.KSatisfied {
			t.Fatalf("shard block %d: %+v", i, st)
		}
		sum += st.Records
	}
	if sum != 800 {
		t.Fatalf("per-shard records sum to %d, want 800", sum)
	}

	var one shardStats
	getJSON(t, ts.URL+"/v1/stats?shard=2", &one)
	if one.Shard != 2 || one.Records != sr.ByShard[2].Records {
		t.Fatalf("?shard=2 returned %+v, want %+v", one, sr.ByShard[2])
	}
	if resp := getJSON(t, ts.URL+"/v1/stats?shard=9", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?shard=9 status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/stats?shard=x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?shard=x status %d, want 400", resp.StatusCode)
	}

	var ar auditByShardResponse
	getJSON(t, ts.URL+"/v1/audit?by_shard", &ar)
	if ar.Report == nil || ar.MinGroupSize < k || ar.MaxGroupSize > 2*k-1 || ar.Records != 800 {
		t.Fatalf("merged audit %+v", ar.Report)
	}
	if len(ar.ByShard) != shards {
		t.Fatalf("audit by_shard has %d entries, want %d", len(ar.ByShard), shards)
	}
	for i, sa := range ar.ByShard {
		if sa.Shard != i || sa.MinGroupSize < k || sa.MaxGroupSize > 2*k-1 || sa.Records == 0 {
			t.Fatalf("shard audit %d: %+v", i, sa.Report)
		}
		if sa.KS != nil {
			t.Fatalf("shard audit %d carries a KS block; per-shard audits must omit it", i)
		}
	}
	var sa shardAudit
	getJSON(t, ts.URL+"/v1/audit?shard=1", &sa)
	if sa.Shard != 1 || sa.Records != ar.ByShard[1].Records {
		t.Fatalf("?shard=1 audit %+v", sa.Report)
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	body, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if want := fmt.Sprintf(`condense_stream_records_total{shard="%d"}`, i); !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}

// TestShardedServerDeterministic is the serving-level reproducibility
// contract: two sharded servers with the same configuration fed the same
// records serve byte-identical checkpoints, and concurrent multi-client
// ingest never breaks the per-shard k-invariant.
func TestShardedServerDeterministic(t *testing.T) {
	checkpoint := func(t *testing.T, ts *httptest.Server) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	records := genRecords(7, 600)
	a := newShardedServer(t, 4, 4)
	b := newShardedServer(t, 4, 4)
	for _, ts := range []*httptest.Server{a, b} {
		if resp := postRecords(t, ts, records); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST status %d", resp.StatusCode)
		}
	}
	if !bytes.Equal(checkpoint(t, a), checkpoint(t, b)) {
		t.Fatal("same configuration and records produced different checkpoints")
	}

	// Concurrent clients: ordering across requests is up to the network,
	// so the exact state is not pinned — but the privacy invariant is.
	c := newShardedServer(t, 4, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				postRecords(t, c, genRecords(uint64(100+w*10+i), 80))
			}
		}(w)
	}
	wg.Wait()
	var rep audit.Report
	getJSON(t, c.URL+"/v1/audit", &rep)
	if rep.Records != 4*5*80 || rep.MinGroupSize < 4 || rep.MaxGroupSize > 7 {
		t.Fatalf("after concurrent ingest: %d records, group sizes [%d, %d], want [4, 7]",
			rep.Records, rep.MinGroupSize, rep.MaxGroupSize)
	}
}

// TestConfigEngine injects a pre-built engine: the server must serve it
// as-is, honouring its dimensionality and locking contract.
func TestConfigEngine(t *testing.T) {
	condenser, err := core.NewCondenser(3, core.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := condenser.Sharded(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp := postRecords(t, ts, [][]float64{{1, 2, 3}, {4, 5, 6}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var hr healthResponse
	getJSON(t, ts.URL+"/healthz", &hr)
	if hr.Dim != 3 || hr.K != 3 || hr.Shards != 2 || hr.Records != 2 {
		t.Fatalf("health %+v", hr)
	}
	if eng.TotalCount() != 2 {
		t.Fatalf("injected engine holds %d records, want 2", eng.TotalCount())
	}
}
