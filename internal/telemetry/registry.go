// Package telemetry is the stdlib-only observability layer of the
// condensation stack: a metrics registry of atomic counters, gauges, and
// fixed-bucket histograms, exportable as Prometheus text exposition, plus
// log/slog-based structured logging helpers.
//
// The design rule is that a disabled metric must cost ~nothing. Every
// handle type (*Counter, *Gauge, *Histogram) is nil-safe: calling a method
// on a nil handle is a no-op, and a nil *Registry hands out nil handles.
// Instrumented code therefore acquires its handles once — from whatever
// registry it was (or was not) given — and the hot path pays only a nil
// check when telemetry is off.
//
// Telemetry is observe-only by contract: nothing in this package feeds
// randomness or decisions back into the instrumented code, so enabling it
// can never change condensation output.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored to keep
// the counter monotone). No-op on a nil handle.
func (c *Counter) Add(n int) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set replaces the value. No-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by delta. No-op on a nil handle.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets by upper bound, and
// tracks the observation sum and count — enough for rate, mean, and
// quantile-estimate queries in Prometheus.
type Histogram struct {
	upper   []float64       // ascending bucket upper bounds, +Inf excluded
	buckets []atomic.Uint64 // len(upper)+1; the last slot is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBuckets are latency-oriented bucket bounds in seconds, spanning 50µs
// to 10s — wide enough for both per-group engine stages and HTTP requests.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one observation. No-op on a nil handle.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are cumulative only at export time; each observation lands in
	// the first bucket whose upper bound admits it, or the explicit +Inf
	// overflow slot at the end. Export derives the +Inf sample and _count
	// from the bucket array alone, so concurrent Observes can never make
	// the cumulative series non-monotone.
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0. No-op on a nil handle.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// kind discriminates metric families for export.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered time series: a family name, an optional label
// set, and exactly one of the three handle types.
type metric struct {
	name   string
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. The zero value is NOT ready to use — call
// NewRegistry. A nil *Registry is the disabled registry: it hands out nil
// handles and exports nothing.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // keyed by name+labels
	kinds   map[string]kind    // family name -> kind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]*metric),
		kinds:   make(map[string]kind),
	}
}

// renderLabels formats alternating key, value pairs as {k="v",...} in the
// given order. Callers must use one consistent order per series; the
// registry keys series by the rendered form. An odd number of arguments
// is a bug at the call site and panics rather than silently producing a
// differently-keyed series.
func renderLabels(kv []string) string {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd number of label arguments (%d): %q", len(kv), kv))
	}
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`=`)
		b.WriteString(strconv.Quote(kv[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for (name, labels), enforcing one
// kind per family. The handle (c/g/h) is allocated here, while r.mu is
// held, so handle pointers are immutable once the metric escapes the
// mutex — concurrent first use cannot mint duplicate handles or race
// with snapshot readers. It returns nil when the registry is nil or the
// family is already registered with a different kind — the caller then
// holds a nil handle, which is safe.
func (r *Registry) lookup(name string, k kind, kv []string, buckets []float64) *metric {
	if r == nil {
		renderLabels(kv) // still validate the call site when disabled
		return nil
	}
	labels := renderLabels(kv)
	id := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.kinds[name]; ok && existing != k {
		return nil
	}
	if m, ok := r.metrics[id]; ok {
		return m
	}
	r.kinds[name] = k
	m := &metric{name: name, labels: labels}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		upper := append([]float64(nil), buckets...)
		sort.Float64s(upper)
		m.h = &Histogram{upper: upper, buckets: make([]atomic.Uint64, len(upper)+1)}
	}
	r.metrics[id] = m
	return m
}

// Counter returns the counter for name and the alternating key, value
// label pairs, creating it on first use. A nil registry returns a nil
// (no-op) handle.
func (r *Registry) Counter(name string, kv ...string) *Counter {
	m := r.lookup(name, kindCounter, kv, nil)
	if m == nil {
		return nil
	}
	return m.c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	m := r.lookup(name, kindGauge, kv, nil)
	if m == nil {
		return nil
	}
	return m.g
}

// Histogram returns the histogram for name and labels with the given
// ascending bucket upper bounds (nil means DefBuckets), creating it on
// first use. The bounds of the first creation win for the series.
func (r *Registry) Histogram(name string, buckets []float64, kv ...string) *Histogram {
	m := r.lookup(name, kindHistogram, kv, buckets)
	if m == nil {
		return nil
	}
	return m.h
}

// snapshot returns the registered series sorted by id, for deterministic
// export.
func (r *Registry) snapshot() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].name != out[b].name {
			return out[a].name < out[b].name
		}
		return out[a].labels < out[b].labels
	})
	return out
}

// SeriesSnapshot is one series' point-in-time state, as captured by
// Registry.Snapshot. Exactly one of the three kind-specific views is
// meaningful, discriminated by Kind.
type SeriesSnapshot struct {
	// Name is the metric family name; Labels is the rendered {k="v",...}
	// block ("" for an unlabeled series). Name+Labels is the series id the
	// flight recorder keys windows by.
	Name   string
	Labels string
	// Kind is "counter", "gauge", or "histogram".
	Kind string
	// Value carries the counter or gauge value.
	Value float64
	// Count, Sum, Upper, and Buckets carry the histogram state. Count is
	// derived from the bucket array (like WritePrometheus's _count), so it
	// always equals the sum of Buckets even under concurrent Observes.
	// Upper is the ascending finite bucket bounds and is shared with the
	// registry — callers must not mutate it; Buckets is a fresh copy of
	// len(Upper)+1 counts, the last being the +Inf overflow slot.
	Count   uint64
	Sum     float64
	Upper   []float64
	Buckets []uint64
}

// ID returns the series identity the registry keys by: name plus the
// rendered label block.
func (s SeriesSnapshot) ID() string { return s.Name + s.Labels }

// Snapshot captures every registered series' current state, sorted by id
// for deterministic consumption. It is the structured twin of
// WritePrometheus, built for the flight recorder's periodic scrapes; a nil
// registry snapshots to nil.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	metrics := r.snapshot()
	out := make([]SeriesSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := SeriesSnapshot{Name: m.name, Labels: m.labels}
		switch {
		case m.c != nil:
			s.Kind = "counter"
			s.Value = float64(m.c.Value())
		case m.g != nil:
			s.Kind = "gauge"
			s.Value = m.g.Value()
		case m.h != nil:
			s.Kind = "histogram"
			s.Upper = m.h.upper
			s.Buckets = make([]uint64, len(m.h.buckets))
			for i := range m.h.buckets {
				s.Buckets[i] = m.h.buckets[i].Load()
				s.Count += s.Buckets[i]
			}
			s.Sum = m.h.Sum()
		}
		out = append(out, s)
	}
	return out
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// mergeLabels splices an extra k="v" pair into an already rendered label
// block.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus writes the registry contents in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per family, counters
// and gauges as single samples, histograms as cumulative _bucket samples
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.snapshot() {
		if m.name != lastFamily {
			var k kind
			switch {
			case m.c != nil:
				k = kindCounter
			case m.g != nil:
				k = kindGauge
			default:
				k = kindHistogram
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, k)
			lastFamily = m.name
		}
		switch {
		case m.c != nil:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labels, formatFloat(m.g.Value()))
		case m.h != nil:
			// +Inf and _count come from the bucket array itself (finite
			// cumulative sum plus the overflow slot), never from the separate
			// count atomic: a concurrent Observe between reads could otherwise
			// make +Inf momentarily smaller than a finite cumulative bucket.
			var cum uint64
			for i, ub := range m.h.upper {
				cum += m.h.buckets[i].Load()
				le := mergeLabels(m.labels, `le="`+formatFloat(ub)+`"`)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, le, cum)
			}
			cum += m.h.buckets[len(m.h.upper)].Load()
			inf := mergeLabels(m.labels, `le="+Inf"`)
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, inf, cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, m.labels, formatFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
