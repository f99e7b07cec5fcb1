package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.SetSampling(1)
	ctx, sp := tr.Start(context.Background(), "noop")
	if sp != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	if ctx != context.Background() {
		t.Fatalf("nil tracer modified context")
	}
	sp = tr.StartChild(nil, "noop")
	if sp != nil {
		t.Fatalf("nil tracer StartChild returned non-nil span")
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.End()
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events(0) != nil {
		t.Fatalf("nil tracer reported state")
	}
}

func TestTracerDisabledByDefault(t *testing.T) {
	tr := NewTracer(16, 0)
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "root")
		if sp != nil {
			t.Fatalf("sampleEvery=0 produced a span")
		}
		sp.End()
	}
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer buffered %d spans", tr.Len())
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(64, 3)
	sampled := 0
	for i := 0; i < 9; i++ {
		_, sp := tr.Start(context.Background(), "root")
		if sp != nil {
			sampled++
		}
		sp.End()
	}
	if sampled != 3 {
		t.Fatalf("1-in-3 sampling over 9 starts recorded %d roots, want 3", sampled)
	}
	if tr.Len() != 3 {
		t.Fatalf("buffered %d spans, want 3", tr.Len())
	}

	tr.SetSampling(0)
	if _, sp := tr.Start(context.Background(), "root"); sp != nil {
		t.Fatalf("SetSampling(0) did not disable recording")
	}
	tr.SetSampling(1)
	if _, sp := tr.Start(context.Background(), "root"); sp == nil {
		t.Fatalf("SetSampling(1) did not record every root")
	}
}

func TestTracerParentChildPropagation(t *testing.T) {
	tr := NewTracer(16, 1)
	ctx, root := tr.Start(context.Background(), "root")
	if root == nil {
		t.Fatalf("root not sampled at 1-in-1")
	}
	ctx2, child := tr.Start(ctx, "child")
	if child == nil {
		t.Fatalf("child of sampled root not recorded")
	}
	_, grand := tr.Start(ctx2, "grandchild")
	grand.End()
	child.End()
	root.SetAttr("status", "ok")
	root.SetAttrInt("n", 7)
	root.End()

	evs := tr.Events(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Completion order: grandchild, child, root.
	g, c, r := evs[0], evs[1], evs[2]
	if r.Parent != 0 {
		t.Fatalf("root has parent %d", r.Parent)
	}
	if c.Parent != r.ID || g.Parent != c.ID {
		t.Fatalf("parent chain wrong: root=%d child.parent=%d grand.parent=%d child=%d",
			r.ID, c.Parent, g.Parent, c.ID)
	}
	if r.Track != r.ID || c.Track != r.ID || g.Track != r.ID {
		t.Fatalf("track not inherited from root: %d %d %d (root id %d)", r.Track, c.Track, g.Track, r.ID)
	}
	want := [][2]string{{"status", "ok"}, {"n", "7"}}
	if len(r.Attrs) != 2 || r.Attrs[0] != want[0] || r.Attrs[1] != want[1] {
		t.Fatalf("root attrs = %v, want %v", r.Attrs, want)
	}
}

func TestTracerChildAlwaysRecordedExplicitParent(t *testing.T) {
	tr := NewTracer(16, 1)
	root := tr.StartChild(nil, "root")
	if root == nil {
		t.Fatalf("root not sampled")
	}
	// Even if sampling is since disabled, a child of a live span records.
	tr.SetSampling(0)
	child := tr.StartChild(root, "child")
	if child == nil {
		t.Fatalf("explicit child of sampled root not recorded")
	}
	child.End()
	root.End()
	if tr.Len() != 2 {
		t.Fatalf("buffered %d, want 2", tr.Len())
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4, 1)
	for i := 0; i < 10; i++ {
		sp := tr.StartChild(nil, "s")
		sp.SetAttrInt("i", i)
		sp.End()
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
	evs := tr.Events(0)
	if evs[0].Attrs[0][1] != "6" || evs[3].Attrs[0][1] != "9" {
		t.Fatalf("ring kept wrong window: first=%v last=%v", evs[0].Attrs, evs[3].Attrs)
	}
	// last=N limits to the newest N.
	evs = tr.Events(2)
	if len(evs) != 2 || evs[0].Attrs[0][1] != "8" || evs[1].Attrs[0][1] != "9" {
		t.Fatalf("Events(2) returned wrong window: %v", evs)
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0, 1)
	if tr.spans.capacity() != defaultTraceCapacity {
		t.Fatalf("default capacity = %d, want %d", tr.spans.capacity(), defaultTraceCapacity)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16, 1)
	ctx, root := tr.Start(context.Background(), "http /v1/records")
	_, child := tr.Start(ctx, "dynamic.add_batch")
	child.SetAttrInt("records", 100)
	child.End()
	root.SetAttr("status", "200")
	root.End()

	var b strings.Builder
	if err := tr.WriteChromeTrace(&b, 0); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(doc.TraceEvents))
	}
	c, r := doc.TraceEvents[0], doc.TraceEvents[1]
	if c.Name != "dynamic.add_batch" || r.Name != "http /v1/records" {
		t.Fatalf("event names wrong: %q, %q", c.Name, r.Name)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 || ev.Cat != "condense" {
			t.Fatalf("event shape wrong: %+v", ev)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("negative ts/dur: %+v", ev)
		}
	}
	if c.Tid != r.Tid {
		t.Fatalf("child tid %d != root tid %d", c.Tid, r.Tid)
	}
	if c.Args["records"] != "100" {
		t.Fatalf("child args = %v", c.Args)
	}
	if c.Args["parent"] == "" {
		t.Fatalf("child missing parent arg: %v", c.Args)
	}
	if r.Args["status"] != "200" {
		t.Fatalf("root args = %v", r.Args)
	}

	// Empty tracer still writes a valid document.
	empty := NewTracer(4, 0)
	b.Reset()
	if err := empty.WriteChromeTrace(&b, 0); err != nil {
		t.Fatalf("empty WriteChromeTrace: %v", err)
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty output invalid JSON: %v", err)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(1024, 1)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ctx, root := tr.Start(context.Background(), "root")
				_, child := tr.Start(ctx, "child")
				child.End()
				root.End()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tr.Len() != 800 {
		t.Fatalf("buffered %d spans, want 800", tr.Len())
	}
}
