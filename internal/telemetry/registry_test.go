package telemetry

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "path", "/v1/records")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative deltas ignored: counters stay monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series.
	if reg.Counter("requests_total", "path", "/v1/records") != c {
		t.Error("re-lookup returned a different counter")
	}

	g := reg.Gauge("in_flight")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %g, want 2", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.005+0.01+0.02+0.5+2+100; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Raw (non-cumulative) bucket contents: le=0.01 holds 0.005 and 0.01
	// (le is inclusive), le=0.1 holds 0.02, le=1 holds 0.5, and 2 and 100
	// land in the explicit +Inf overflow slot at the end.
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramObserveSince(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("d_seconds", nil)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("count=%d sum=%g after ObserveSince", h.Count(), h.Sum())
	}
}

// TestPrometheusGolden pins the exact text exposition: family ordering,
// TYPE lines, label rendering, cumulative buckets, +Inf, _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "path", "/x", "code", "2xx").Add(7)
	reg.Counter("b_total", "path", "/y", "code", "4xx").Inc()
	reg.Gauge("c_gauge").Set(2.5)
	h := reg.Histogram("a_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.7)
	h.Observe(3)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE a_seconds histogram
a_seconds_bucket{le="0.1"} 2
a_seconds_bucket{le="1"} 3
a_seconds_bucket{le="+Inf"} 4
a_seconds_sum 3.8
a_seconds_count 4
# TYPE b_total counter
b_total{path="/x",code="2xx"} 7
b_total{path="/y",code="4xx"} 1
# TYPE c_gauge gauge
c_gauge 2.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestNilSafety proves the disabled path: a nil registry hands out nil
// handles and every operation on them is a no-op.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total")
	g := reg.Gauge("x")
	h := reg.Histogram("x_seconds", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("no-op handles reported non-zero values")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry exposition: err=%v body=%q", err, buf.String())
	}
}

// TestKindConflict: re-registering a family under a different kind yields
// a safe nil handle instead of corrupting the exposition.
func TestKindConflict(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("m") == nil {
		t.Fatal("first registration failed")
	}
	if reg.Gauge("m") != nil {
		t.Error("conflicting kind handed out a live handle")
	}
}

// TestRegistryConcurrent hammers one registry from 16 goroutines — lookup,
// write, and export concurrently — and then checks the totals. Run under
// -race this is the data-race proof for the whole layer.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("ops_total", "worker", "shared").Inc()
				reg.Gauge("depth").Set(float64(i))
				reg.Histogram("work_seconds", nil, "worker", "shared").Observe(float64(i) * 1e-6)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := reg.WritePrometheus(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("ops_total", "worker", "shared").Value(); got != goroutines*iters {
		t.Errorf("ops_total = %d, want %d", got, goroutines*iters)
	}
	if got := reg.Histogram("work_seconds", nil, "worker", "shared").Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

// TestRegistryConcurrentFirstUse releases all goroutines from a barrier so
// they race on the one-time creation of each series. Lazily initializing
// handles outside the registry lock would lose increments here (two
// goroutines minting two handles for one series) and trip -race; handles
// must be allocated inside lookup while the mutex is held.
func TestRegistryConcurrentFirstUse(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			reg.Counter("first_total", "worker", "shared").Inc()
			reg.Gauge("first_depth").Add(1)
			reg.Histogram("first_seconds", nil, "worker", "shared").Observe(0.001)
		}()
	}
	close(start)
	wg.Wait()
	if got := reg.Counter("first_total", "worker", "shared").Value(); got != goroutines {
		t.Errorf("first_total = %d, want %d (increments lost to a duplicate handle?)", got, goroutines)
	}
	if got := reg.Gauge("first_depth").Value(); got != goroutines {
		t.Errorf("first_depth = %g, want %d", got, goroutines)
	}
	if got := reg.Histogram("first_seconds", nil, "worker", "shared").Count(); got != goroutines {
		t.Errorf("first_seconds count = %d, want %d", got, goroutines)
	}
}

// TestOddLabelsPanic: an odd number of label arguments is a call-site bug
// and must fail loudly instead of minting a differently-keyed series.
func TestOddLabelsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"live": func() { NewRegistry().Counter("x_total", "path") },
		"nil":  func() { var reg *Registry; reg.Gauge("x", "path") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registry: odd label arguments did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hidden")
	log.Info("visible", "k", 1)
	if strings.Contains(buf.String(), "hidden") {
		t.Error("debug line emitted at info level")
	}
	var rec map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if rec["msg"] != "visible" || rec["k"] != float64(1) {
		t.Errorf("record = %v", rec)
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}

	off, err := NewLogger(&buf, "off", "text")
	if err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	off.Error("dropped")
	if buf.Len() != n {
		t.Error("off logger wrote output")
	}
}

func TestComponent(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	Component(log, "engine").Info("hello")
	if !strings.Contains(buf.String(), "component=engine") {
		t.Errorf("missing component attr: %q", buf.String())
	}
	if Component(nil, "engine") == nil {
		t.Error("nil parent returned nil logger")
	}
}
