package core

import (
	"bytes"
	"context"
	"testing"

	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// TestTracingObserveOnly proves the observe-only contract of the tracing
// layer: with a tracer attached and sampling every operation, static
// condensation, dynamic per-record ingest, batch ingest, and synthesis
// all produce bit-identical output to
// the untraced run — the tracer never touches the engine's rng stream or
// routing decisions.
func TestTracingObserveOnly(t *testing.T) {
	const k, dim = 5, 3
	stream := gaussianRecords(31, 900, dim)

	build := func(tr *telemetry.Tracer) *Dynamic {
		t.Helper()
		d, err := emptyDynamic(dim, k, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		d.SetTracer(tr)
		return d
	}

	// Reference: no tracer, sequential Add.
	ref := build(nil)
	for _, x := range stream {
		if err := ref.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	want := dynamicFingerprint(t, ref)

	// Traced per-record ingest, sampling every record.
	tr := telemetry.NewTracer(256, 1)
	d := build(tr)
	for _, x := range stream {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(want, dynamicFingerprint(t, d)) {
		t.Fatal("traced Add diverged from untraced run")
	}
	if tr.Len() == 0 {
		t.Fatal("tracing at 1-in-1 recorded no spans")
	}

	// Traced batch ingest under a request-style parent span.
	tr = telemetry.NewTracer(256, 1)
	d = build(tr)
	ctx, root := tr.Start(context.Background(), "request")
	if err := d.AddBatchContext(ctx, stream); err != nil {
		t.Fatal(err)
	}
	root.End()
	if !bytes.Equal(want, dynamicFingerprint(t, d)) {
		t.Fatal("traced AddBatch diverged from untraced run")
	}
	names := map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
	}
	for _, n := range []string{"dynamic.add_batch", "dynamic.split"} {
		if !names[n] {
			t.Errorf("batch trace missing %q span (got %v)", n, names)
		}
	}

	// Static pipeline: traced and untraced runs condense identically.
	records := gaussianRecords(41, 300, dim)
	plain, err := NewCondenser(k, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	wantCond, err := plain.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	tr = telemetry.NewTracer(64, 1)
	traced, err := NewCondenser(k, WithSeed(3), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	gotCond, err := traced.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	wantSynth, err := wantCond.Synthesize(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	gotCond.SetTracer(tr)
	gotSynth, err := gotCond.Synthesize(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSynth) != len(gotSynth) {
		t.Fatalf("synthesis sizes differ: %d vs %d", len(wantSynth), len(gotSynth))
	}
	for i := range wantSynth {
		for j := range wantSynth[i] {
			if wantSynth[i][j] != gotSynth[i][j] {
				t.Fatalf("traced synthesis diverged at record %d attr %d", i, j)
			}
		}
	}
	names = map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
	}
	for _, n := range []string{"static.condense", "static.groups", "synthesize"} {
		if !names[n] {
			t.Errorf("static trace missing %q span (got %v)", n, names)
		}
	}
}

// TestTracingShardFanOut: at two or more shards a batch runs under one
// dynamic.fan_out span, with one dynamic.shard span per shard that
// received records.
func TestTracingShardFanOut(t *testing.T) {
	const k, dim = 5, 3
	stream := gaussianRecords(31, 900, dim)
	c, err := NewCondenser(k, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := c.Sharded(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(256, 1)
	sharded.SetTracer(tr)
	ctx, root := tr.Start(context.Background(), "request")
	if err := sharded.AddBatchContext(ctx, stream); err != nil {
		t.Fatal(err)
	}
	root.End()
	shardSpans := 0
	names := map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
		if ev.Name == "dynamic.shard" {
			shardSpans++
		}
	}
	if !names["dynamic.fan_out"] || shardSpans != 2 || !names["dynamic.add_batch"] {
		t.Errorf("sharded batch trace: want dynamic.fan_out, two dynamic.shard and dynamic.add_batch spans, got %d shard spans in %v", shardSpans, names)
	}
}

// TestTracingDisabledNoSpans: the default nil tracer records nothing and
// ingest still works (the hot-path guard).
func TestTracingDisabledNoSpans(t *testing.T) {
	d, err := emptyDynamic(2, 3, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d.SetTracer(nil)
	for _, x := range gaussianRecords(2, 50, 2) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if d.TotalCount() != 50 {
		t.Fatalf("ingested %d records, want 50", d.TotalCount())
	}
}
