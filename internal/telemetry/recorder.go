package telemetry

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Recorder is the flight recorder: a fixed-capacity ring of periodic
// registry scrapes. Each scrape produces one Window holding every
// counter's value and delta, every gauge's value, and every histogram's
// windowed count/sum deltas plus p50/p95/p99 estimated from the bucket
// counts that arrived during the window alone. The ring keeps the most
// recent Capacity windows; older ones are overwritten, never grown — so
// the recorder answers "how did this series move over the last N scrape
// intervals" with bounded memory, no external storage, and no work on any
// ingest hot path (scrapes run on whoever calls Scrape or Run, typically
// condenserd's scraper goroutine).
//
// Like the rest of the package, the recorder is observe-only: it reads
// the registry (and runs registered collectors, which may refresh gauges)
// but never feeds anything back into instrumented code, so enabling it
// cannot change condensation output.
type Recorder struct {
	reg *Registry

	windows *ring[Window]

	mu         sync.Mutex // serializes scrapes; guards the fields below
	collectors []func()
	prevC      map[string]uint64   // last counter values, for deltas
	prevH      map[string]histPrev // last histogram states, for deltas
	lastScrape time.Time
}

// histPrev is the per-histogram state remembered between scrapes.
type histPrev struct {
	count   uint64
	sum     float64
	buckets []uint64
}

// defaultRecorderCapacity bounds the ring when NewRecorder is given a
// non-positive capacity: 360 windows ≈ one hour at a 10s scrape cadence.
const defaultRecorderCapacity = 360

// NewRecorder returns a flight recorder over reg holding up to capacity
// windows (capacity ≤ 0 means the default 360).
func NewRecorder(reg *Registry, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = defaultRecorderCapacity
	}
	return &Recorder{
		reg:     reg,
		windows: newRing[Window](capacity),
		prevC:   make(map[string]uint64),
		prevH:   make(map[string]histPrev),
	}
}

// JSONFloat is a float64 that marshals non-finite values (which JSON
// cannot carry) as null instead of failing the whole encode. The recorder
// uses it for windowed quantiles, where NaN legitimately means "no
// observations this window".
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// UnmarshalJSON implements json.Unmarshaler: null round-trips back to NaN
// so clients (condense -watch) see "no observations", not a zero quantile.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = JSONFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

// CounterSample is one counter's state in one window.
type CounterSample struct {
	// Value is the cumulative count at scrape time; Delta is the increase
	// since the previous scrape (the full value in the first window a
	// series appears in).
	Value uint64 `json:"value"`
	Delta uint64 `json:"delta"`
}

// HistogramSample is one histogram's state in one window. The quantiles
// are estimated from the observations that arrived during this window
// alone (bucket deltas, linear interpolation within a bucket, Prometheus
// histogram_quantile semantics) and are NaN when the window saw none.
type HistogramSample struct {
	Count      uint64    `json:"count"`
	CountDelta uint64    `json:"count_delta"`
	Sum        JSONFloat `json:"sum"`
	SumDelta   JSONFloat `json:"sum_delta"`
	P50        JSONFloat `json:"p50"`
	P95        JSONFloat `json:"p95"`
	P99        JSONFloat `json:"p99"`
}

// Window is one flight-recorder scrape: every registered series keyed by
// its id (family name plus rendered labels). The maps are frozen once the
// window is recorded — readers must not mutate them.
type Window struct {
	// Seq numbers windows from 1 in scrape order; Start and End bracket
	// the interval the deltas cover (Start is the previous scrape time, or
	// the recorder's first use).
	Seq        uint64                     `json:"seq"`
	Start      time.Time                  `json:"start"`
	End        time.Time                  `json:"end"`
	Counters   map[string]CounterSample   `json:"counters"`
	Gauges     map[string]JSONFloat       `json:"gauges"`
	Histograms map[string]HistogramSample `json:"histograms"`
}

// AddCollector registers a function run at the start of every scrape,
// before the registry is read — the hook for refreshing gauges that are
// derived from live state rather than updated inline (per-shard load
// gauges, uptime). Collectors run on the scraper goroutine, so their cost
// never lands on an ingest hot path.
func (r *Recorder) AddCollector(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// Scrape runs the collectors, snapshots the registry, computes this
// window's deltas and quantiles, commits the window to the ring, and
// returns it. Safe for concurrent use with metric writers; concurrent
// Scrape calls serialize.
func (r *Recorder) Scrape() Window {
	r.mu.Lock()
	collectors := r.collectors
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}
	snap := r.reg.Snapshot()
	now := time.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.lastScrape
	if start.IsZero() {
		start = now
	}
	r.lastScrape = now
	w := Window{
		Start:      start,
		End:        now,
		Counters:   make(map[string]CounterSample),
		Gauges:     make(map[string]JSONFloat),
		Histograms: make(map[string]HistogramSample),
	}
	for _, s := range snap {
		id := s.ID()
		switch s.Kind {
		case "counter":
			v := uint64(s.Value)
			w.Counters[id] = CounterSample{Value: v, Delta: v - r.prevC[id]}
			r.prevC[id] = v
		case "gauge":
			w.Gauges[id] = JSONFloat(s.Value)
		case "histogram":
			prev := r.prevH[id]
			delta := make([]uint64, len(s.Buckets))
			for i, b := range s.Buckets {
				var p uint64
				if i < len(prev.buckets) {
					p = prev.buckets[i]
				}
				delta[i] = b - p
			}
			h := HistogramSample{
				Count:      s.Count,
				CountDelta: s.Count - prev.count,
				Sum:        JSONFloat(s.Sum),
				SumDelta:   JSONFloat(s.Sum - prev.sum),
				P50:        JSONFloat(histogramQuantile(s.Upper, delta, 0.50)),
				P95:        JSONFloat(histogramQuantile(s.Upper, delta, 0.95)),
				P99:        JSONFloat(histogramQuantile(s.Upper, delta, 0.99)),
			}
			w.Histograms[id] = h
			r.prevH[id] = histPrev{count: s.Count, sum: s.Sum, buckets: s.Buckets}
		}
	}
	return r.windows.push(w, func(w Window, seq uint64) Window {
		w.Seq = seq
		return w
	})
}

// Run scrapes every interval until ctx is done, invoking after (when
// non-nil) with each completed window — the hook the health watchdog
// evaluates from. It blocks; callers run it on a dedicated goroutine.
func (r *Recorder) Run(ctx context.Context, every time.Duration, after func(Window)) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w := r.Scrape()
			if after != nil {
				after(w)
			}
		}
	}
}

// Len returns the number of windows currently buffered.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n, _ := r.windows.counts()
	return n
}

// Capacity returns the ring capacity in windows.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.windows.capacity()
}

// Seq returns the number of windows ever recorded (including evicted
// ones).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	_, total := r.windows.counts()
	return total
}

// Windows returns up to last of the most recent windows, oldest first
// (last ≤ 0 returns everything buffered). The Window structs are copies
// but share their (frozen) maps with the ring.
func (r *Recorder) Windows(last int) []Window {
	if r == nil {
		return nil
	}
	return r.windows.last(last, nil)
}

// LastWindow returns the most recent window, if any.
func (r *Recorder) LastWindow() (Window, bool) {
	ws := r.Windows(1)
	if len(ws) == 0 {
		return Window{}, false
	}
	return ws[0], true
}

// GaugeSeries returns the gauge's value in each of the last n windows,
// oldest first, with NaN where the series was absent.
func (r *Recorder) GaugeSeries(series string, last int) []float64 {
	ws := r.Windows(last)
	out := make([]float64, len(ws))
	for i, w := range ws {
		v, ok := w.Gauges[series]
		if !ok {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(v)
	}
	return out
}

// CounterDeltaSeries returns the counter's per-window delta in each of
// the last n windows, oldest first, with NaN where the series was absent.
func (r *Recorder) CounterDeltaSeries(series string, last int) []float64 {
	ws := r.Windows(last)
	out := make([]float64, len(ws))
	for i, w := range ws {
		c, ok := w.Counters[series]
		if !ok {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(c.Delta)
	}
	return out
}

// QuantileSeries returns the histogram's windowed quantile (one of 0.5,
// 0.95, 0.99 — the quantiles the recorder precomputes) in each of the
// last n windows, oldest first. Windows where the series was absent or
// saw no observations carry NaN.
func (r *Recorder) QuantileSeries(series string, q float64, last int) []float64 {
	ws := r.Windows(last)
	out := make([]float64, len(ws))
	for i, w := range ws {
		h, ok := w.Histograms[series]
		if !ok {
			out[i] = math.NaN()
			continue
		}
		switch q {
		case 0.5:
			out[i] = float64(h.P50)
		case 0.95:
			out[i] = float64(h.P95)
		case 0.99:
			out[i] = float64(h.P99)
		default:
			out[i] = math.NaN()
		}
	}
	return out
}

// FilterWindow returns a copy of w restricted to the series matching any
// of the given selectors. A selector matches a series whose id equals it
// exactly, or whose family name equals it (i.e. the id is the selector
// followed by a {label} block) — so "condense_shard_records" selects the
// whole labeled family.
func FilterWindow(w Window, selectors []string) Window {
	match := func(id string) bool {
		for _, sel := range selectors {
			if id == sel || strings.HasPrefix(id, sel+"{") {
				return true
			}
		}
		return false
	}
	out := Window{
		Seq: w.Seq, Start: w.Start, End: w.End,
		Counters:   make(map[string]CounterSample),
		Gauges:     make(map[string]JSONFloat),
		Histograms: make(map[string]HistogramSample),
	}
	for id, c := range w.Counters {
		if match(id) {
			out.Counters[id] = c
		}
	}
	for id, g := range w.Gauges {
		if match(id) {
			out.Gauges[id] = g
		}
	}
	for id, h := range w.Histograms {
		if match(id) {
			out.Histograms[id] = h
		}
	}
	return out
}

// histogramQuantile estimates the q-quantile of the observations counted
// in buckets (len(upper)+1 counts, the last being the +Inf overflow),
// with Prometheus histogram_quantile semantics: the rank is located in
// the cumulative bucket counts and linearly interpolated inside its
// bucket, the first bucket interpolating from 0. A rank landing in the
// +Inf overflow returns the highest finite bound (the estimate cannot
// exceed what the buckets resolve); zero total observations return NaN.
func histogramQuantile(upper []float64, buckets []uint64, q float64) float64 {
	var total uint64
	for _, b := range buckets {
		total += b
	}
	if total == 0 || len(upper) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i, ub := range upper {
		prev := cum
		cum += float64(buckets[i])
		if cum >= rank {
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			if buckets[i] == 0 {
				return lo
			}
			return lo + (ub-lo)*(rank-prev)/float64(buckets[i])
		}
	}
	// The rank lies in the +Inf overflow mass.
	return upper[len(upper)-1]
}
