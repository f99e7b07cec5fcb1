// Streaming-ingestion benchmarks: steady-state throughput of the dynamic
// engine's hot path (PR 4) at realistic group counts, through every layer
// that ingests — Dynamic.Add / Dynamic.AddBatch directly, the stream
// driver, and the HTTP server. Reference numbers live in BENCH_PR4.json.
package condensation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/server"
	"condensation/internal/stream"
	"condensation/internal/telemetry"
)

// benchStream draws an i.i.d. isotropic Gaussian record pool — the
// pruning-hostile worst case for any spatial index, since every direction
// carries equal variance.
func benchStream(seed uint64, n, dim int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		x := make(mat.Vector, dim)
		for j := range x {
			x[j] = r.Norm()
		}
		out[i] = x
	}
	return out
}

// benchStreamCorr draws a correlated record pool: a rank-3 factor model
// x = Az + 0.1ε with z ∈ R³, so records live near a 3-dimensional
// subspace of R^dim. This is the regime the paper's condensation targets —
// its split step is eigenvector-based precisely because real attributes
// are correlated — and the regime where centroid-index pruning pays off.
func benchStreamCorr(seed uint64, n, dim int) []mat.Vector {
	const intrinsic = 3
	r := rng.New(seed)
	a := make([]float64, dim*intrinsic)
	for i := range a {
		a[i] = r.Norm()
	}
	out := make([]mat.Vector, n)
	for i := range out {
		var z [intrinsic]float64
		for j := range z {
			z[j] = r.Norm()
		}
		x := make(mat.Vector, dim)
		for j := range x {
			s := 0.1 * r.Norm()
			for l, zv := range z {
				s += a[j*intrinsic+l] * zv
			}
			x[j] = s
		}
		out[i] = x
	}
	return out
}

// benchBase builds a static condensation with ≈ groups groups of the
// given k over a prefix of pool, for seeding per-benchmark dynamic
// condensers.
func benchBase(b *testing.B, pool []mat.Vector, groups, k int) *core.Condensation {
	b.Helper()
	base, err := condense(pool[:groups*k], k, rng.New(12))
	if err != nil {
		b.Fatal(err)
	}
	return base
}

// benchFresh seeds a dynamic condenser from base. Ingest benchmarks
// re-seed every benchResetEvery records (off the clock) so the group
// count — the variable that determines routing cost — stays pinned near
// the sub-benchmark's G instead of growing with b.N.
func benchFresh(b *testing.B, base *core.Condensation) *core.Dynamic {
	b.Helper()
	c, err := core.NewCondenser(base.K(), core.WithSeed(13))
	if err != nil {
		b.Fatal(err)
	}
	dyn, err := c.DynamicFrom(base)
	if err != nil {
		b.Fatal(err)
	}
	return dyn
}

// benchResetEvery is the record budget between off-the-clock re-seeds: at
// k = 25 it bounds group growth to +164 groups over a measurement window.
const benchResetEvery = 4096

// BenchmarkDynamicAddAll measures steady-state per-record ingest cost at
// fixed group counts through both the per-record Add loop and the
// in-order AddBatch path (1024-record batches), over two stream
// shapes: isotropic i.i.d. noise (worst case for the centroid index's
// spatial pruning) and a correlated rank-3 factor stream (the
// attribute-correlated regime the paper targets). Both cells of one
// stream × G produce bit-identical condensations (TestAddBatchEquivalence);
// only the clock and the allocation counters move. ns/op is per record in
// every cell.
func BenchmarkDynamicAddAll(b *testing.B) {
	const dim, k, batchSize = 8, 25, 1024
	const maxBase = 800 * k
	streams := []struct {
		name string
		gen  func(seed uint64, n, dim int) []mat.Vector
	}{{"iid", benchStream}, {"corr", benchStreamCorr}}
	for _, str := range streams {
		// One pool per stream shape: the static base comes from its prefix so
		// base groups and ingested records share one distribution (for the
		// correlated stream, the same factor matrix).
		full := str.gen(14, maxBase+1<<16, dim)
		pool := full[maxBase:]
		for _, G := range []int{200, 800} {
			base := benchBase(b, full, G, k)
			b.Run(fmt.Sprintf("%s/G=%d/add", str.name, G), func(b *testing.B) {
				dyn := benchFresh(b, base)
				fed := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if fed == benchResetEvery {
						b.StopTimer()
						dyn = benchFresh(b, base)
						fed = 0
						b.StartTimer()
					}
					if err := dyn.Add(pool[i%len(pool)]); err != nil {
						b.Fatal(err)
					}
					fed++
				}
			})
			b.Run(fmt.Sprintf("%s/G=%d/batch", str.name, G), func(b *testing.B) {
				dyn := benchFresh(b, base)
				fed := 0
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; {
					if fed >= benchResetEvery {
						b.StopTimer()
						dyn = benchFresh(b, base)
						fed = 0
						b.StartTimer()
					}
					n := batchSize
					if b.N-done < n {
						n = b.N - done
					}
					lo := done % (len(pool) - batchSize)
					if err := dyn.AddBatch(pool[lo : lo+n]); err != nil {
						b.Fatal(err)
					}
					done += n
					fed += n
				}
			})
		}
	}
}

// BenchmarkStreamFeed measures the stream driver end to end — telemetry
// gauges, snapshot cadence, and the condenser underneath — per record,
// over the correlated stream at G = 800 (the steady-state regime the
// centroid index targets).
func BenchmarkStreamFeed(b *testing.B) {
	const dim, k, G = 8, 25, 800
	full := benchStreamCorr(14, G*k+1<<16, dim)
	pool := full[G*k:]
	base := benchBase(b, full, G, k)
	fresh := func() *stream.Driver {
		d, err := stream.NewDriver(benchFresh(b, base))
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	d := fresh()
	fed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		if fed >= benchResetEvery {
			b.StopTimer()
			d = fresh()
			fed = 0
			b.StartTimer()
		}
		n := 1 << 10
		if b.N-done < n {
			n = b.N - done
		}
		lo := done % (len(pool) - 1<<10)
		if err := d.Feed(pool[lo : lo+n]); err != nil {
			b.Fatal(err)
		}
		done += n
		fed += n
	}
}

// BenchmarkServerIngest measures the full HTTP ingest path — JSON decode,
// validation, the write-locked AddBatch, and the JSON response — in
// records per op: each iteration POSTs one 1024-record pre-encoded body
// against a server resumed at G = 800 over the correlated stream, and
// ns/op is per record, comparable to the engine-level benchmarks above.
func BenchmarkServerIngest(b *testing.B) {
	const dim, k, batchSize = 8, 25, 1024
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
	s := fresh()
	pool := full[G*k:]
	var bodies [][]byte
	for lo := 0; lo+batchSize <= len(pool); lo += batchSize {
		rows := make([][]float64, batchSize)
		for i, x := range pool[lo : lo+batchSize] {
			rows[i] = []float64(x)
		}
		body, err := json.Marshal(map[string]interface{}{"records": rows})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	fed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batchSize {
		if fed >= benchResetEvery {
			b.StopTimer()
			s = fresh()
			fed = 0
			b.StartTimer()
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/records",
			bytes.NewReader(bodies[(done/batchSize)%len(bodies)]))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
		fed += batchSize
	}
}

// BenchmarkServerIngestRecorded measures the observability tax on the HTTP
// ingest path: the same pinned-G batch POST loop as BenchmarkServerIngest,
// once with telemetry disabled, once with the full PR 8 stack enabled — a
// registry, a flight recorder scraping every millisecond on its own
// goroutine (hundreds of times more often than the production 10s default),
// and a watchdog evaluating the health rules after every scrape. Because
// scrapes never run inline on the request path, the "recorded" cell should
// sit within noise of "off": the only hot-path cost is the atomic counter
// and histogram updates the server already pays whenever a registry is
// attached.
func BenchmarkServerIngestRecorded(b *testing.B) {
	const dim, k, batchSize = 8, 25, 1024
	const G = 800
	full := benchStreamCorr(14, G*k+1<<14, dim)
	base := benchBase(b, full, G, k)
	c, err := core.NewCondenser(k, core.WithSeed(16))
	if err != nil {
		b.Fatal(err)
	}
	pool := full[G*k:]
	var bodies [][]byte
	for lo := 0; lo+batchSize <= len(pool); lo += batchSize {
		rows := make([][]float64, batchSize)
		for i, x := range pool[lo : lo+batchSize] {
			rows[i] = []float64(x)
		}
		body, err := json.Marshal(map[string]interface{}{"records": rows})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, recorded := range []bool{false, true} {
		name := "off"
		if recorded {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			// stop ends the current server's scraper and waits for it, so
			// one scraper runs at a time, not one per re-seed.
			stop := func() {}
			b.Cleanup(func() { stop() })
			fresh := func() *server.Server {
				stop()
				stop = func() {}
				eng, err := c.ShardedFrom(base, 1)
				if err != nil {
					b.Fatal(err)
				}
				cfg := server.Config{Engine: eng}
				if recorded {
					reg := telemetry.NewRegistry()
					rec := telemetry.NewRecorder(reg, 360)
					wd := telemetry.NewWatchdog(reg, nil, server.HealthRules(k, 1)...)
					cfg.Telemetry, cfg.Recorder, cfg.Watchdog = reg, rec, wd
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() {
						defer close(done)
						rec.Run(ctx, time.Millisecond, func(telemetry.Window) {
							wd.Evaluate(rec)
						})
					}()
					stop = func() {
						cancel()
						<-done
					}
				}
				s, err := server.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			s := fresh()
			fed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				if fed >= benchResetEvery {
					b.StopTimer()
					s = fresh()
					fed = 0
					b.StartTimer()
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/records",
					bytes.NewReader(bodies[(done/batchSize)%len(bodies)]))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
				}
				fed += batchSize
			}
		})
	}
}
