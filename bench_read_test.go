// Serving-tier read benchmarks: the generation-versioned read path. Each
// benchmark drives one read endpoint against a server resumed at the
// pinned G = 800 correlated-stream base and reports two cells:
//
//   - hot:  repeated reads of unchanged state — the current release
//     serves stored bytes, so cost is response plumbing alone.
//   - cold: every read is preceded by an off-clock single-record POST
//     that moves the mutation generation, forcing a new release: the
//     engine re-clones only the group the POST changed and the release
//     scans the group sizes once. A snapshot read then re-synthesizes
//     and re-encodes only that group and rebuilds only the blocks that
//     hold a changed group (one, or two after a split), sharing every
//     other block of the previous body at the same seed by pointer.
//     Stats summarize the release's sizes; checkpoints re-serialize
//     every group.
//
// BenchmarkServerReadSnapshot adds a full cell, which reads a seed never
// seen before on every iteration, so nothing can be reused and the
// from-scratch build (every group synthesized and encoded) stays
// measured.
//
// The hot/cold allocation gap was the claim of the generation-keyed
// caches: unchanged-state reads drop from O(G·d²) clones per request to
// near-zero. The harness reuses one request and one response writer so
// the cells measure the server, not httptest allocations. Reference
// numbers live in BENCH_PR9.json; CI guards the hot- and cold-cell
// allocs/op, and the snapshot cold cell's B/op against 1 MiB, a third of
// the 3.15 MB body, so a miss that copies the whole body fails.
package condensation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"condensation/internal/core"
	"condensation/internal/server"
)

// benchWriter is a reusable allocation-free http.ResponseWriter: the
// header map and body buffer persist across requests so per-iteration
// allocs/op reflect handler work only.
type benchWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newBenchWriter() *benchWriter { return &benchWriter{header: make(http.Header)} }

func (w *benchWriter) Header() http.Header { return w.header }
func (w *benchWriter) WriteHeader(s int)   { w.status = s }
func (w *benchWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *benchWriter) reset() {
	w.status = 0
	w.body.Reset()
	for k := range w.header {
		delete(w.header, k)
	}
}

// get drives one request through the server via the reused writer,
// failing the benchmark unless the response status is want.
func (w *benchWriter) get(b *testing.B, s *server.Server, req *http.Request, want int) {
	w.reset()
	s.ServeHTTP(w, req)
	if w.status != want {
		b.Fatalf("GET %s status %d, want %d: %s", req.URL, w.status, want, w.body.String())
	}
}

// benchServerRead measures one read endpoint hot and cold at G = 800. It
// returns the constructor of the fresh servers the cells run against.
func benchServerRead(b *testing.B, path string) func() *server.Server {
	const dim, k = 8, 25
	const G = 800
	full := benchStreamCorr(14, G*k+1<<14, dim)
	base := benchBase(b, full, G, k)
	c, err := core.NewCondenser(k, core.WithSeed(16))
	if err != nil {
		b.Fatal(err)
	}
	fresh := func() *server.Server {
		eng, err := c.ShardedFrom(base, 1)
		if err != nil {
			b.Fatal(err)
		}
		s, err := server.New(server.Config{Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	// Pre-encoded single-record POST bodies: the cold loop's off-clock
	// generation movers, drawn from the same correlated pool.
	pool := full[G*k:]
	bodies := make([][]byte, 512)
	for i := range bodies {
		body, err := json.Marshal(map[string]interface{}{
			"records": [][]float64{[]float64(pool[i%len(pool)])},
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}

	b.Run("cold", func(b *testing.B) {
		s := fresh()
		w := newBenchWriter()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w.get(b, s, req, http.StatusOK) // size the body buffer off the clock
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Re-seed periodically so group count stays pinned near G
			// despite the per-iteration writes, as the ingest benches do.
			if i > 0 && i%benchResetEvery == 0 {
				s = fresh()
			}
			post := httptest.NewRequest(http.MethodPost, "/v1/records",
				bytes.NewReader(bodies[i%len(bodies)]))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, post)
			if rec.Code != http.StatusOK {
				b.Fatalf("invalidating POST status %d: %s", rec.Code, rec.Body.String())
			}
			b.StartTimer()
			w.get(b, s, req, http.StatusOK)
		}
	})

	b.Run("hot", func(b *testing.B) {
		s := fresh()
		w := newBenchWriter()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w.get(b, s, req, http.StatusOK) // warm the release off the clock
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.get(b, s, req, http.StatusOK)
		}
	})
	return fresh
}

// BenchmarkServerReadSnapshot measures GET /v1/snapshot: 20000 synthesized
// records, JSON-encoded (~3 MB per response). Hot replays the memoized
// (generation, seed) body; cold rebuilds from the previous body, changing
// only the group the POST changed; full reads a new seed each time and
// synthesizes and encodes everything.
func BenchmarkServerReadSnapshot(b *testing.B) {
	fresh := benchServerRead(b, "/v1/snapshot?seed=7")
	b.Run("full", func(b *testing.B) {
		s := fresh()
		w := newBenchWriter()
		w.get(b, s, httptest.NewRequest(http.MethodGet, "/v1/snapshot?seed=7", nil), http.StatusOK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			req := httptest.NewRequest(http.MethodGet, "/v1/snapshot?seed="+strconv.Itoa(1000+i), nil)
			b.StartTimer()
			w.get(b, s, req, http.StatusOK)
		}
	})
}

// BenchmarkServerReadStats measures GET /v1/stats: hot replays the encoded
// body; cold cuts a release and summarizes its group sizes.
func BenchmarkServerReadStats(b *testing.B) { benchServerRead(b, "/v1/stats") }

// BenchmarkServerReadCheckpoint measures GET /v1/checkpoint: hot serves
// the release's encoded state under its generation ETag; cold cuts a
// release and re-serializes every group. The extra hot304 cell is the conditional
// poller: If-None-Match matches, so the server answers with headers
// alone — the replica-refresh fast path.
func BenchmarkServerReadCheckpoint(b *testing.B) {
	fresh := benchServerRead(b, "/v1/checkpoint")
	b.Run("hot304", func(b *testing.B) {
		s := fresh()
		w := newBenchWriter()
		w.get(b, s, httptest.NewRequest(http.MethodGet, "/v1/checkpoint", nil), http.StatusOK)
		etag := w.header.Get("ETag")
		if etag == "" {
			b.Fatal("checkpoint served no ETag")
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/checkpoint", nil)
		req.Header.Set("If-None-Match", etag)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.get(b, s, req, http.StatusNotModified)
		}
	})
}
