package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"condensation/internal/kernel"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// dynamicFingerprint captures everything the batch-equivalence contract
// promises byte for byte: every group's exact moment encoding, the
// centroids the router holds, and a synthesized sample.
func dynamicFingerprint(t *testing.T, d *Dynamic) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, sh := range d.shards {
		for _, g := range sh.groups {
			enc, err := g.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(enc)
		}
		for i := range sh.groups {
			for _, v := range sh.router.Point(i) {
				var b [8]byte
				u := math.Float64bits(v)
				for i := range b {
					b[i] = byte(u >> (8 * i))
				}
				buf.Write(b[:])
			}
		}
	}
	synth, err := d.Condensation().Synthesize(rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range synth {
		for _, v := range x {
			var b [8]byte
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// addCheckingScan is the reference ingest loop: before each Add it checks
// that the record's shard's centroid index picks the group the paper's
// linear scan picks — kernel.ArgminFlat over the means of the shard's
// groups, recomputed from their moments, ties to the lower slot — at the
// same squared distance.
func addCheckingScan(t *testing.T, d *Dynamic, stream []mat.Vector) {
	t.Helper()
	var arena []float64
	for i, x := range stream {
		sh := d.shards[d.shardOf(x)]
		if len(sh.groups) > 0 {
			arena = arena[:0]
			for _, g := range sh.groups {
				c, err := g.Mean()
				if err != nil {
					t.Fatal(err)
				}
				arena = append(arena, c...)
			}
			wantID, wantD := kernel.ArgminFlat(x, arena)
			if gotID, gotD := sh.router.Nearest(x); gotID != wantID || gotD != wantD {
				t.Fatalf("record %d: index routed to group %d at %v, the scan to %d at %v", i, gotID, gotD, wantID, wantD)
			}
		}
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddBatchEquivalence is the determinism contract of the batch ingest
// engine: AddBatch at any batch slicing produces bit-identical groups,
// centroids, and synthesized output to the sequential Add loop on the
// same seed, whose every routing decision is checked against the linear
// scan — at 1 and 4 shards, both from an empty condenser and from a
// static bootstrap.
func TestAddBatchEquivalence(t *testing.T) {
	const k, dim = 6, 4
	stream := gaussianRecords(21, 1200, dim)
	c, err := NewCondenser(k, WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	cond, err := condense(gaussianRecords(22, 80, dim), k, rng.New(23), Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		for _, boot := range []bool{false, true} {
			build := func() *Dynamic {
				t.Helper()
				var d *Dynamic
				var err error
				if boot {
					d, err = c.ShardedFrom(cond, shards)
				} else {
					d, err = c.Sharded(dim, shards)
				}
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			ref := build()
			addCheckingScan(t, ref, stream)
			want := dynamicFingerprint(t, ref)

			for _, batch := range []int{1, 7, 256, len(stream)} {
				d := build()
				for lo := 0; lo < len(stream); lo += batch {
					hi := lo + batch
					if hi > len(stream) {
						hi = len(stream)
					}
					if err := d.AddBatch(stream[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				if got := dynamicFingerprint(t, d); !bytes.Equal(got, want) {
					t.Fatalf("shards=%d boot=%v batch=%d: AddBatch diverged from sequential Add loop",
						shards, boot, batch)
				}
			}
		}
	}

	// A pure stream from empty grows its one shard past 256 groups: the
	// index starts with no points, answers from its dirty list, then builds
	// and rebuilds its tree mid-batch, and every batch must still match the
	// Add loop.
	t.Run("auto-promotion-mid-batch", func(t *testing.T) {
		stream := gaussianRecords(7, 3000, dim)
		build := func() *Dynamic {
			d, err := emptyDynamic(dim, k, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		ref := build()
		addCheckingScan(t, ref, stream)
		if ref.NumGroups() <= 256 {
			t.Fatalf("the stream formed %d groups, want more than 256", ref.NumGroups())
		}
		d := build()
		for lo := 0; lo < len(stream); lo += 500 {
			if err := d.AddBatch(stream[lo:min(lo+500, len(stream))]); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := d.NumGroups(), ref.NumGroups(); got != want {
			t.Fatalf("AddBatch ended with %d groups, Add loop with %d", got, want)
		}
		if !bytes.Equal(dynamicFingerprint(t, d), dynamicFingerprint(t, ref)) {
			t.Fatal("AddBatch diverged from the Add loop on a stream growing past 256 groups")
		}
	})
}

// Telemetry on the batch path is observe-only: with a registry attached,
// AddBatch must produce the same bytes, and the stream counter must still
// count every record exactly once.
func TestAddBatchTelemetryObserveOnly(t *testing.T) {
	const k, dim = 5, 3
	stream := gaussianRecords(31, 500, dim)

	plain, err := emptyDynamic(dim, k, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AddBatch(stream); err != nil {
		t.Fatal(err)
	}
	want := dynamicFingerprint(t, plain)

	reg := telemetry.NewRegistry()
	instr, err := emptyDynamic(dim, k, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	instr.SetTelemetry(reg)
	if err := instr.AddBatch(stream[:200]); err != nil {
		t.Fatal(err)
	}
	if err := instr.AddBatch(stream[200:]); err != nil {
		t.Fatal(err)
	}
	if got := dynamicFingerprint(t, instr); !bytes.Equal(got, want) {
		t.Fatal("telemetry changed AddBatch output")
	}
	if got := reg.Counter(metricStreamRecords).Value(); got != 500 {
		t.Errorf("stream_records = %d, want 500", got)
	}
	if got, want := reg.Gauge(metricGroups).Value(), float64(instr.NumGroups()); got != want {
		t.Errorf("groups gauge = %g, want %g", got, want)
	}
	if reg.Counter(metricSplitEvents).Value() == 0 {
		t.Error("no split events recorded over 500 records at k=5")
	}
}

func TestAddBatchValidatesUpFront(t *testing.T) {
	d, err := emptyDynamic(2, 3, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	batch := []mat.Vector{{1, 2}, {3, 4}, {5}}
	if err := d.AddBatch(batch); err == nil {
		t.Fatal("short record accepted")
	}
	if d.TotalCount() != 0 {
		t.Errorf("TotalCount = %d after rejected batch, want 0", d.TotalCount())
	}
	if err := d.AddBatch([]mat.Vector{{1, math.NaN()}}); err == nil {
		t.Error("non-finite record accepted")
	}
	if err := d.AddBatch(nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
}

func TestAddBatchCancelled(t *testing.T) {
	d, err := emptyDynamic(2, 3, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.AddBatchContext(ctx, gaussianRecords(43, 50, 2)); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if d.TotalCount() != 0 {
		t.Errorf("TotalCount = %d after pre-cancelled batch, want 0", d.TotalCount())
	}
	// A live context ingests normally afterwards.
	if err := d.AddBatch(gaussianRecords(43, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if d.TotalCount() != 50 {
		t.Errorf("TotalCount = %d, want 50", d.TotalCount())
	}
}

// cancelAfter is a context whose Done returns a closed channel from its
// (n+1)-th call on, and whose Err reports cancellation from then: addBatch
// polls Done once before each record, so the batch stops after exactly n
// applied records.
type cancelAfter struct {
	context.Context
	n int
}

// closedDone is the closed channel a fired cancelAfter returns.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *cancelAfter) Done() <-chan struct{} {
	if c.n--; c.n < 0 {
		return closedDone
	}
	return nil
}

func (c *cancelAfter) Err() error {
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestAddBatchCancelledAtPoll: a context that turns done after n polls
// stops the batch after exactly n applied records, founding included,
// with an error naming record n that wraps context.Canceled. Batching the
// rest afterwards is still bit-identical to an Add loop over the stream.
func TestAddBatchCancelledAtPoll(t *testing.T) {
	const k, dim = 3, 2
	stream := gaussianRecords(47, 800, dim)
	ref, err := emptyDynamic(dim, k, rng.New(48))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range stream {
		if err := ref.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	want := dynamicFingerprint(t, ref)
	for _, n := range []int{0, 1, 293, len(stream) - 1} {
		d, err := emptyDynamic(dim, k, rng.New(48))
		if err != nil {
			t.Fatal(err)
		}
		err = d.AddBatchContext(&cancelAfter{Context: context.Background(), n: n}, stream)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), fmt.Sprintf("at record %d:", n)) {
			t.Fatalf("n=%d: err = %v, want cancellation at record %d", n, err, n)
		}
		if got := d.TotalCount(); got != n {
			t.Fatalf("n=%d: cancelled batch applied %d records", n, got)
		}
		if err := d.AddBatch(stream[n:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dynamicFingerprint(t, d), want) {
			t.Errorf("n=%d: batches around a cancellation diverged from the Add loop", n)
		}
	}
}
