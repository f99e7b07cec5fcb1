package core

import (
	"bytes"
	"strings"
	"testing"

	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// TestTelemetryObserveOnly is the determinism contract of the tentpole:
// enabling telemetry must not change a single synthesized byte, at any
// parallelism, in either construction regime.
func TestTelemetryObserveOnly(t *testing.T) {
	records := gaussianRecords(11, 300, 3)
	for _, par := range []int{1, 4} {
		plain, err := NewCondenser(10, WithSeed(3), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		instrumented, err := NewCondenser(10, WithSeed(3), WithParallelism(par), WithTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}

		want, err := plain.Static(records)
		if err != nil {
			t.Fatal(err)
		}
		got, err := instrumented.Static(records)
		if err != nil {
			t.Fatal(err)
		}
		wantSynth, err := want.Synthesize(rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		gotSynth, err := got.Synthesize(rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(wantSynth) != len(gotSynth) {
			t.Fatalf("par=%d: %d vs %d synthesized records", par, len(gotSynth), len(wantSynth))
		}
		for i := range wantSynth {
			for j := range wantSynth[i] {
				if wantSynth[i][j] != gotSynth[i][j] {
					t.Fatalf("par=%d: synthesis diverged at record %d attr %d", par, i, j)
				}
			}
		}
	}
}

// TestTelemetryStaticCounters checks the static engine's counters and
// stage timers line up with the condensation it produced.
func TestTelemetryStaticCounters(t *testing.T) {
	records := gaussianRecords(7, 103, 3) // 103 = 10 full groups of 10 + 3 leftovers
	reg := telemetry.NewRegistry()
	c, err := NewCondenser(10, WithSeed(2), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	cond, err := c.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(metricGroupsFormed).Value(); got != uint64(cond.NumGroups()) {
		t.Errorf("groups_formed = %d, want %d", got, cond.NumGroups())
	}
	if got := reg.Counter(metricLeftovers).Value(); got != 3 {
		t.Errorf("leftover_records = %d, want 3", got)
	}
	search := reg.Histogram(metricStageSeconds, nil,
		"stage", "neighbor_search", "backend", "quickselect")
	if got := search.Count(); got != uint64(cond.NumGroups()) {
		t.Errorf("neighbor_search observations = %d, want %d", got, cond.NumGroups())
	}
	if _, err := cond.Synthesize(rng.New(1)); err != nil {
		t.Fatal(err)
	}
	// The eigen stage timer is sampled one solve in eigenSampleEvery
	// (by batch index, starting at 0), so 10 groups yield exactly one
	// observation.
	wantEigen := (cond.NumGroups() + eigenSampleEvery - 1) / eigenSampleEvery
	eigen := reg.Histogram(metricStageSeconds, nil, "stage", "eigen")
	if got := eigen.Count(); got != uint64(wantEigen) {
		t.Errorf("eigen observations = %d, want %d", got, wantEigen)
	}
}

// TestTelemetryDynamicCounters checks stream ingestion metrics: record
// counter, split events, and the live group gauge.
func TestTelemetryDynamicCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := NewCondenser(5, WithSeed(4), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := c.Sharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := gaussianRecords(9, 80, 2)
	if err := addEach(dyn, records); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(metricStreamRecords).Value(); got != 80 {
		t.Errorf("stream_records = %d, want 80", got)
	}
	splits := reg.Counter(metricSplitEvents).Value()
	if splits == 0 {
		t.Error("no split events recorded over 80 records at k=5")
	}
	if got, want := reg.Gauge(metricGroups).Value(), float64(dyn.NumGroups()); got != want {
		t.Errorf("groups gauge = %g, want %g", got, want)
	}
	// Every split is timed.
	split := reg.Histogram(metricStageSeconds, nil, "stage", "split")
	if got := split.Count(); got != splits {
		t.Errorf("split stage observations = %d, want %d", got, splits)
	}
	// The dynamic routing registers its own backend label.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `backend="centroid-kdtree"`) {
		t.Error("exposition missing centroid-kdtree neighbor_search series")
	}
}
