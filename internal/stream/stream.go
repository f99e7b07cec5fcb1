// Package stream drives the dynamic condensation of Section 3 of the paper
// over simulated record streams: it feeds records to any core.Engine (a
// core.Dynamic at any shard count), optionally interleaving snapshot
// callbacks, and can simulate concept drift by re-ordering or shifting the
// stream. It exists so the dynamic experiments and the streaming example
// share one tested driver.
package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// Snapshot reports the condenser state after a prefix of the stream.
type Snapshot struct {
	// Seen is the number of stream records delivered so far.
	Seen int
	// Groups is the group count at this point.
	Groups int
	// AvgGroupSize is the mean group size at this point.
	AvgGroupSize float64
}

// Driver streams records into a condenser engine, one Engine.Add per
// record, so Seen and the snapshot cadence count the driver's own records
// even when other writers share the engine.
type Driver struct {
	eng core.Engine
	// Every n records, the driver records a Snapshot (0 disables).
	SnapshotEvery int

	snapshots []Snapshot
	seen      int

	log     *slog.Logger
	rate    *telemetry.Gauge // records/sec over the last Feed call
	churn   *telemetry.Gauge // net group-count change over the last Feed call
	records *telemetry.Counter
	tr      *telemetry.Tracer
}

// NewDriver wraps a condenser engine — a *core.Dynamic at any shard
// count, or a decorator around one.
func NewDriver(eng core.Engine) (*Driver, error) {
	if eng == nil {
		return nil, errors.New("stream: nil condenser engine")
	}
	return &Driver{eng: eng, log: telemetry.Nop()}, nil
}

// SetTelemetry attaches a metrics registry: each Feed/FeedContext call
// then updates a records-per-second gauge and a group-churn gauge (net
// groups gained over the call), and counts the records it delivered.
// This instruments the driver itself; attach the same registry to the
// condenser (core.WithTelemetry) for the engine-level stage timers.
func (d *Driver) SetTelemetry(reg *telemetry.Registry) {
	d.rate = reg.Gauge("stream_records_per_second")
	d.churn = reg.Gauge("stream_group_churn")
	d.records = reg.Counter("stream_records_total")
}

// SetTracer attaches a span tracer: each Feed/FeedContext call then
// records a sampled "stream.feed" span (with per-snapshot children), and
// the condenser's ingest spans nest under it when the same tracer is
// attached to the condenser (core.WithTracer). A nil tracer disables the
// driver's spans. Observe-only, like SetTelemetry.
func (d *Driver) SetTracer(tr *telemetry.Tracer) { d.tr = tr }

// SetLogger attaches a structured logger: the driver then emits one
// progress line per recorded snapshot (so SnapshotEvery doubles as the
// logging cadence). A nil logger silences it again.
func (d *Driver) SetLogger(log *slog.Logger) {
	if log == nil {
		log = telemetry.Nop()
	}
	d.log = log
}

// Feed streams the records in order. It is FeedContext with a background
// context; long streams that must be abortable should use FeedContext.
func (d *Driver) Feed(records []mat.Vector) error {
	return d.FeedContext(context.Background(), records)
}

// FeedContext streams the records in order until the context is done, at
// which point it stops with the context's error. Records fed before
// cancellation stay condensed and counted; the driver can keep feeding
// afterwards with a live context.
func (d *Driver) FeedContext(ctx context.Context, records []mat.Vector) error {
	ctx, span := d.tr.Start(ctx, "stream.feed")
	span.SetAttrInt("records", len(records))
	defer span.End()
	t0 := time.Now()
	groups0 := d.eng.NumGroups()
	delivered := 0
	defer func() {
		// Gauges reflect the call that just finished, whether it completed
		// or was cancelled mid-stream; delivered records stay counted.
		d.records.Add(delivered)
		d.churn.Set(float64(d.eng.NumGroups() - groups0))
		if elapsed := time.Since(t0).Seconds(); elapsed > 0 {
			d.rate.Set(float64(delivered) / elapsed)
		}
	}()
	for i, x := range records {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stream: cancelled at record %d: %w", i, err)
		}
		if err := d.eng.Add(x); err != nil {
			return fmt.Errorf("stream: record %d: %w", i, err)
		}
		d.seen++
		delivered++
		if d.SnapshotEvery > 0 && d.seen%d.SnapshotEvery == 0 {
			d.takeSnapshot(ctx, t0, delivered, groups0)
		}
	}
	return nil
}

func (d *Driver) takeSnapshot(ctx context.Context, feedStart time.Time, delivered, groups0 int) {
	_, span := d.tr.Start(ctx, "stream.snapshot")
	defer span.End()
	snap := d.eng.Condensation()
	span.SetAttrInt("seen", d.seen)
	span.SetAttrInt("groups", snap.NumGroups())
	d.snapshots = append(d.snapshots, Snapshot{
		Seen:         d.seen,
		Groups:       snap.NumGroups(),
		AvgGroupSize: snap.AverageGroupSize(),
	})
	rate := 0.0
	if elapsed := time.Since(feedStart).Seconds(); elapsed > 0 {
		rate = float64(delivered) / elapsed
	}
	// Refresh the feed gauges mid-call so a concurrent flight-recorder
	// scrape sees live throughput during a long Feed, not the values left
	// over from the previous call; the Feed-end defer still records the
	// final figures.
	d.rate.Set(rate)
	d.churn.Set(float64(snap.NumGroups() - groups0))
	d.log.Info("stream progress",
		slog.Int("seen", d.seen),
		slog.Int("groups", snap.NumGroups()),
		slog.Float64("avg_group_size", snap.AverageGroupSize()),
		slog.Float64("records_per_sec", rate))
}

// Snapshots returns the recorded snapshots in stream order.
func (d *Driver) Snapshots() []Snapshot { return append([]Snapshot(nil), d.snapshots...) }

// Seen returns the number of records streamed so far.
func (d *Driver) Seen() int { return d.seen }

// Condensation snapshots the current groups.
func (d *Driver) Condensation() *core.Condensation { return d.eng.Condensation() }

// Shuffled returns a shuffled copy of records — the i.i.d. stream order
// used by the paper's dynamic experiments.
func Shuffled(records []mat.Vector, r *rng.Source) []mat.Vector {
	out := make([]mat.Vector, len(records))
	copy(out, records)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Drifted returns a copy of records with a linearly growing shift applied
// along the given attribute — a simple concept-drift stream for stressing
// dynamic maintenance beyond the paper's i.i.d. setting. The first record
// is unshifted; the last is shifted by maxShift.
func Drifted(records []mat.Vector, attr int, maxShift float64) ([]mat.Vector, error) {
	if len(records) == 0 {
		return nil, errors.New("stream: no records")
	}
	if attr < 0 || attr >= len(records[0]) {
		return nil, fmt.Errorf("stream: attribute %d out of range [0,%d)", attr, len(records[0]))
	}
	out := make([]mat.Vector, len(records))
	denom := float64(len(records) - 1)
	if denom == 0 {
		denom = 1
	}
	for i, x := range records {
		y := x.Clone()
		y[attr] += maxShift * float64(i) / denom
		out[i] = y
	}
	return out, nil
}
