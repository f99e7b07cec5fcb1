package telemetry

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Tracer records lightweight execution spans into a bounded in-memory ring
// buffer, for export in the Chrome trace-event format (load the JSON into
// chrome://tracing or https://ui.perfetto.dev).
//
// The design rules mirror the metrics registry:
//
//   - Nil-safe and observe-only. Every method works on a nil *Tracer and a
//     nil *Span (they no-op), and nothing a span records ever feeds back
//     into the instrumented code, so enabling tracing can never change
//     condensation output.
//   - Sampled at the root. A span started with no parent (no span in the
//     context, nil parent) is recorded for one in every SampleEvery root
//     starts; the default SampleEvery of 0 disables tracing entirely.
//     Children of a sampled root are always recorded, so one sampled
//     request/record carries its whole sub-tree. A disabled or unsampled
//     start costs a nil check plus one atomic load — no clock read and no
//     allocation — which is what keeps the 0 allocs/record ingest hot path
//     intact when tracing is off.
//   - Bounded. The ring keeps the most recent Capacity completed spans;
//     older spans are overwritten, never grown.
type Tracer struct {
	epoch time.Time

	sampleEvery atomic.Int64
	starts      atomic.Uint64 // root-start counter driving the sampler
	ids         atomic.Uint64 // span id allocator (0 is reserved for "no parent")

	spans *ring[SpanEvent]
}

// SpanEvent is one completed span as stored in the ring.
type SpanEvent struct {
	// Name is the span name, e.g. "dynamic.add_batch".
	Name string
	// ID, Parent, and Track identify the span, its parent (0 for roots),
	// and the root span of its tree (used as the Chrome "thread" id so one
	// sampled tree renders on one timeline row).
	ID, Parent, Track uint64
	// Start is the span's start offset from the tracer's epoch; Dur is its
	// wall-clock duration.
	Start, Dur time.Duration
	// Attrs are the key/value attributes set on the span, in set order.
	Attrs [][2]string
}

// Span is one in-flight traced operation. A nil *Span is the unsampled
// span: every method no-ops, so instrumentation sites never branch on
// whether tracing is enabled.
type Span struct {
	t      *Tracer
	name   string
	id     uint64
	parent uint64
	track  uint64
	start  time.Time
	attrs  [][2]string
}

// defaultTraceCapacity bounds the ring when NewTracer is given a
// non-positive capacity.
const defaultTraceCapacity = 4096

// NewTracer returns a tracer holding up to capacity completed spans
// (capacity ≤ 0 means the default 4096), sampling one in sampleEvery root
// spans. sampleEvery ≤ 0 disables recording entirely; 1 records every
// root.
func NewTracer(capacity, sampleEvery int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	t := &Tracer{
		epoch: time.Now(),
		spans: newRing[SpanEvent](capacity),
	}
	t.sampleEvery.Store(int64(sampleEvery))
	return t
}

// SetSampling replaces the root-sampling stride: one in every n root spans
// is recorded; n ≤ 0 disables recording. Safe to call while spans are in
// flight.
func (t *Tracer) SetSampling(n int) {
	if t == nil {
		return
	}
	t.sampleEvery.Store(int64(n))
}

// spanKey is the context key carrying the current *Span.
type spanKey struct{}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Start begins a span named name as a child of the span in ctx. With no
// span in ctx it is a root start, subject to 1-in-SampleEvery sampling.
// The returned context carries the new span for nested Start calls; when
// the start is not sampled (or the tracer is nil) the context is returned
// unchanged and the span is nil.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	sp := t.StartChild(FromContext(ctx), name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartChild begins a span named name under parent. A nil parent makes
// this a root start, subject to sampling; a non-nil parent is always
// recorded (its root already won the sampling draw). Callers that do not
// flow a context — per-record hot paths — use this form directly.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		every := t.sampleEvery.Load()
		if every <= 0 {
			return nil
		}
		if n := t.starts.Add(1); (n-1)%uint64(every) != 0 {
			return nil
		}
	}
	sp := &Span{t: t, name: name, id: t.ids.Add(1), start: time.Now()}
	if parent != nil {
		sp.parent = parent.id
		sp.track = parent.track
	} else {
		sp.track = sp.id
	}
	return sp
}

// SetAttr attaches a string attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, [2]string{key, value})
}

// SetAttrInt attaches an integer attribute to the span.
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, [2]string{key, strconv.Itoa(value)})
}

// End completes the span and commits it to the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.t.spans.push(SpanEvent{
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Track:  s.track,
		Start:  s.start.Sub(s.t.epoch),
		Dur:    end.Sub(s.start),
		Attrs:  s.attrs,
	}, nil)
}

// Len returns the number of completed spans currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n, _ := t.spans.counts()
	return n
}

// Dropped returns the number of completed spans overwritten by newer ones
// since the tracer was created.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	n, total := t.spans.counts()
	return total - uint64(n)
}

// Events returns up to last of the most recently completed spans in
// completion order (oldest first). last ≤ 0 returns everything buffered.
// The returned slice is a copy; SpanEvent values are safe to retain.
func (t *Tracer) Events(last int) []SpanEvent {
	if t == nil {
		return nil
	}
	return t.spans.last(last, nil)
}

// WriteChromeTrace writes up to last buffered spans (≤ 0 for all) as a
// Chrome trace-event JSON object: one complete ("ph":"X") event per span,
// timestamps and durations in microseconds, the span tree id as the tid so
// each sampled tree gets its own timeline row, and span attributes under
// "args". The output loads directly into chrome://tracing or Perfetto.
func (t *Tracer) WriteChromeTrace(w io.Writer, last int) error {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, ev := range t.Events(last) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n{\"name\":%s,\"cat\":\"condense\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"id\":%d",
			strconv.Quote(ev.Name),
			float64(ev.Start)/float64(time.Microsecond),
			float64(ev.Dur)/float64(time.Microsecond),
			ev.Track, ev.ID)
		if len(ev.Attrs) > 0 || ev.Parent != 0 {
			b.WriteString(`,"args":{`)
			first := true
			if ev.Parent != 0 {
				fmt.Fprintf(&b, `"parent":"%d"`, ev.Parent)
				first = false
			}
			for _, kv := range ev.Attrs {
				if !first {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s:%s", strconv.Quote(kv[0]), strconv.Quote(kv[1]))
				first = false
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
