package audit

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// cluster draws n points around center with the given spread.
func cluster(r *rng.Source, n, dim int, center, spread float64) []mat.Vector {
	out := make([]mat.Vector, n)
	for i := range out {
		v := make(mat.Vector, dim)
		for j := range v {
			v[j] = center + r.Uniform(-spread, spread)
		}
		out[i] = v
	}
	return out
}

func staticCondensation(t *testing.T, records []mat.Vector, k int) *core.Condensation {
	t.Helper()
	c, err := core.NewCondenser(k, core.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	cond, err := c.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	return cond
}

func TestComputeEmpty(t *testing.T) {
	r, err := Compute(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Groups != 0 || r.Records != 0 || r.MinGroupSize != 0 || r.GroupSizeHist != nil {
		t.Fatalf("empty report = %+v", r)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("empty report not serializable: %v", err)
	}
}

func TestComputeHealthy(t *testing.T) {
	src := rng.New(11)
	records := append(cluster(src, 60, 3, 0, 1), cluster(src, 60, 3, 50, 1)...)
	cond := staticCondensation(t, records, 5)

	rep, err := Compute(cond, Config{Original: records, SynthSeed: 3, Leftovers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != len(records) {
		t.Errorf("records = %d, want %d", rep.Records, len(records))
	}
	if rep.MinGroupSize < 5 || rep.MaxGroupSize > 9 {
		t.Errorf("group sizes outside [k,2k-1]: min=%d max=%d", rep.MinGroupSize, rep.MaxGroupSize)
	}
	var histTotal int
	for _, b := range rep.GroupSizeHist {
		histTotal += b.Count
	}
	if histTotal != rep.Groups {
		t.Errorf("size histogram covers %d groups, want %d", histTotal, rep.Groups)
	}
	// Two tight, well-separated clusters: within-group scatter must be a
	// small fraction of total scatter.
	if rep.SSERatio <= 0 || rep.SSERatio > 0.1 {
		t.Errorf("sse_ratio = %v, want small positive", rep.SSERatio)
	}
	if rep.WithinSSE <= 0 || rep.TotalSSE <= rep.WithinSSE {
		t.Errorf("SSE inconsistent: within=%v total=%v", rep.WithinSSE, rep.TotalSSE)
	}
	if rep.DegenerateGroups != 0 {
		t.Errorf("unexpected degenerate groups: %d", rep.DegenerateGroups)
	}
	if rep.CondNumber.Min < 1 || rep.CondNumber.Max < rep.CondNumber.Min ||
		rep.CondNumber.Mean < rep.CondNumber.Min || rep.CondNumber.Mean > rep.CondNumber.Max {
		t.Errorf("condition-number summary inconsistent: %+v", rep.CondNumber)
	}
	if len(rep.CondNumber.Hist) == 0 {
		t.Error("condition-number histogram empty")
	}
	if rep.KS == nil {
		t.Fatal("KS block missing despite original sample")
	}
	if len(rep.KS.PerAttribute) != 3 {
		t.Fatalf("per-attribute KS has %d entries, want 3", len(rep.KS.PerAttribute))
	}
	for j, d := range rep.KS.PerAttribute {
		if d < 0 || d > 1 || math.IsNaN(d) {
			t.Errorf("KS[%d] = %v out of [0,1]", j, d)
		}
		// Synthesis preserves the marginals closely for uniform clusters.
		if d > 0.5 {
			t.Errorf("KS[%d] = %v, implausibly far", j, d)
		}
	}
	if rep.LeftoverRatio != 0 {
		t.Errorf("leftover_ratio = %v, want 0", rep.LeftoverRatio)
	}
}

// TestComputeDeterministic: the same condensation and config give the
// identical report (the KS synthesis uses only the audit's own seed).
func TestComputeDeterministic(t *testing.T) {
	src := rng.New(5)
	records := cluster(src, 40, 2, 0, 3)
	cond := staticCondensation(t, records, 4)
	cfg := Config{Original: records, SynthSeed: 99}
	a, err := Compute(cond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(cond, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("audit not deterministic:\n%s\n%s", ja, jb)
	}
}

// TestComputeZeroVarianceGroup is the regression test for the degenerate
// case: all-identical records give a zero covariance matrix, which must be
// reported as a degenerate group — never NaN, ±Inf, or a panic.
func TestComputeZeroVarianceGroup(t *testing.T) {
	records := make([]mat.Vector, 12)
	for i := range records {
		records[i] = mat.Vector{1.5, -2.0}
	}
	cond := staticCondensation(t, records, 4)

	rep, err := Compute(cond, Config{Original: records, SynthSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegenerateGroups != rep.Groups {
		t.Errorf("degenerate groups = %d, want all %d", rep.DegenerateGroups, rep.Groups)
	}
	if len(rep.CondNumber.Hist) != 0 {
		t.Errorf("degenerate-only condensation produced κ histogram %v", rep.CondNumber.Hist)
	}
	if rep.TotalSSE != 0 || rep.SSERatio != 0 {
		t.Errorf("zero-variance data: total_sse=%v sse_ratio=%v, want 0", rep.TotalSSE, rep.SSERatio)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report not serializable: %v", err)
	}
	if strings.Contains(string(data), "NaN") || strings.Contains(string(data), "Inf") {
		t.Fatalf("report leaked non-finite values: %s", data)
	}
}

// TestComputeKViolation checks the leftover accounting: the count is
// reported as given and its ratio is taken over the condensed records plus
// the leftovers. (The audit counts no k violations: a Release holds none.)
func TestComputeKViolation(t *testing.T) {
	src := rng.New(3)
	records := cluster(src, 30, 2, 0, 5)
	cond := staticCondensation(t, records, 5)
	rep, err := Compute(cond, Config{Leftovers: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LeftoverRecords != 10 {
		t.Errorf("leftover_records = %d", rep.LeftoverRecords)
	}
	want := 10.0 / float64(rep.Records+10)
	if math.Abs(rep.LeftoverRatio-want) > 1e-12 {
		t.Errorf("leftover_ratio = %v, want %v", rep.LeftoverRatio, want)
	}
}

func TestPublish(t *testing.T) {
	src := rng.New(8)
	records := cluster(src, 50, 2, 0, 2)
	cond := staticCondensation(t, records, 5)
	rep, err := Compute(cond, Config{Original: records, SynthSeed: 2})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	rep.Publish(reg)
	rep.Publish(reg) // second pass: runs counter advances, gauges overwrite

	if got := reg.Counter(MetricRuns).Value(); got != 2 {
		t.Errorf("runs counter = %d, want 2", got)
	}
	if got := reg.Gauge(MetricGroups).Value(); got != float64(rep.Groups) {
		t.Errorf("groups gauge = %v, want %d", got, rep.Groups)
	}
	if got := reg.Gauge(MetricSSERatio).Value(); got != rep.SSERatio {
		t.Errorf("sse gauge = %v, want %v", got, rep.SSERatio)
	}
	if got := int(reg.Histogram(MetricGroupSize, nil).Count()); got != 2*rep.Groups {
		t.Errorf("group-size histogram count = %d, want %d", got, 2*rep.Groups)
	}
	// Exposition includes the audit family.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricRuns, MetricGroupSize, MetricCondNumber} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// The KS block is a function of raw records: the report carries it,
	// the registry never does.
	if rep.KS == nil || strings.Contains(b.String(), "condense_audit_ks") {
		t.Errorf("KS block %v, or a KS series in the exposition:\n%s", rep.KS, b.String())
	}

	// Nil registry and nil report are safe.
	rep.Publish(nil)
	(*Report)(nil).Publish(reg)
}

func TestPublishShard(t *testing.T) {
	src := rng.New(9)
	records := cluster(src, 40, 2, 0, 2)
	cond := staticCondensation(t, records, 5)
	rep, err := Compute(cond, Config{SynthSeed: 2})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	rep.PublishShard(reg, 3)
	if got := reg.Gauge(MetricGroups, "shard", "3").Value(); got != float64(rep.Groups) {
		t.Errorf("shard groups gauge = %v, want %d", got, rep.Groups)
	}
	if got := reg.Gauge(MetricRecords, "shard", "3").Value(); got != float64(rep.Records) {
		t.Errorf("shard records gauge = %v, want %d", got, rep.Records)
	}
	if got := reg.Gauge(MetricMinGroupSize, "shard", "3").Value(); got != float64(rep.MinGroupSize) {
		t.Errorf("shard min-group gauge = %v, want %d", got, rep.MinGroupSize)
	}
	if got := reg.Gauge(MetricLeftoverRatio, "shard", "3").Value(); got != rep.LeftoverRatio {
		t.Errorf("shard leftover gauge = %v, want %v", got, rep.LeftoverRatio)
	}

	// The per-shard series must not collide with (or overwrite) the merged
	// unlabeled series.
	rep.Publish(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), MetricGroups+`{shard="3"}`) {
		t.Errorf("exposition missing labeled shard series:\n%s", b.String())
	}
	if !strings.Contains(b.String(), MetricGroups+" ") {
		t.Errorf("exposition missing merged unlabeled series")
	}

	// Nil registry and nil report are no-ops.
	rep.PublishShard(nil, 0)
	(*Report)(nil).PublishShard(reg, 0)
}
