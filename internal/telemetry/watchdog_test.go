package telemetry

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

// wdFixture builds a registry, recorder, and a watchdog over the given
// rules, with a buffer capturing slog output.
func wdFixture(t *testing.T, rules ...Rule) (*Registry, *Recorder, *Watchdog, *bytes.Buffer) {
	t.Helper()
	reg := NewRegistry()
	rec := NewRecorder(reg, 32)
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	return reg, rec, NewWatchdog(reg, log, rules...), &buf
}

// TestWatchdogTransitions drives one rule ok → degraded → failing → ok and
// checks the state machine, alert counters, state gauges, and slog output
// at each step.
func TestWatchdogTransitions(t *testing.T) {
	sev := SevOK
	rule := Rule{
		Name:        "synthetic",
		Description: "test rule",
		Eval:        func(*Recorder) (Severity, string) { return sev, "driven by test" },
	}
	reg, rec, wd, buf := wdFixture(t, rule)

	if got := wd.Evaluate(rec); got != SevOK {
		t.Fatalf("initial Evaluate = %v, want ok", got)
	}
	if buf.Len() != 0 {
		t.Errorf("no-transition evaluation logged: %q", buf.String())
	}

	sev = SevDegraded
	if got := wd.Evaluate(rec); got != SevDegraded || wd.State() != SevDegraded {
		t.Fatalf("Evaluate/State = %v/%v, want degraded", got, wd.State())
	}
	logged := buf.String()
	if !strings.Contains(logged, "health rule transition") ||
		!strings.Contains(logged, "rule=synthetic") ||
		!strings.Contains(logged, "to=degraded") ||
		!strings.Contains(logged, "level=WARN") {
		t.Errorf("degraded transition log = %q, want WARN with rule/to fields", logged)
	}
	if got := reg.Counter(MetricAlerts, "rule", "synthetic").Value(); got != 1 {
		t.Errorf("alerts after escalation = %d, want 1", got)
	}

	// Re-evaluating in the same state must not re-alert or re-log.
	buf.Reset()
	wd.Evaluate(rec)
	if buf.Len() != 0 || reg.Counter(MetricAlerts, "rule", "synthetic").Value() != 1 {
		t.Errorf("steady-state evaluation alerted again (log %q)", buf.String())
	}

	sev = SevFailing
	buf.Reset()
	wd.Evaluate(rec)
	if !strings.Contains(buf.String(), "level=ERROR") {
		t.Errorf("failing transition log = %q, want ERROR", buf.String())
	}
	if got := reg.Counter(MetricAlerts, "rule", "synthetic").Value(); got != 2 {
		t.Errorf("alerts after second escalation = %d, want 2", got)
	}
	if got := reg.Gauge(MetricHealthState).Value(); got != 2 {
		t.Errorf("health state gauge = %g, want 2 (failing)", got)
	}

	// Recovery logs at Info and does NOT advance the alert counter.
	sev = SevOK
	buf.Reset()
	wd.Evaluate(rec)
	if !strings.Contains(buf.String(), "level=INFO") || !strings.Contains(buf.String(), "to=ok") {
		t.Errorf("recovery log = %q, want INFO to=ok", buf.String())
	}
	if got := reg.Counter(MetricAlerts, "rule", "synthetic").Value(); got != 2 {
		t.Errorf("alerts after recovery = %d, want still 2", got)
	}
	_, status := wd.Status()
	if len(status) != 1 || status[0].Transitions != 3 || status[0].Alerts != 2 {
		t.Errorf("status = %+v, want 3 transitions and 2 alerts", status)
	}
}

// TestWatchdogNil: the disabled watchdog must be safe everywhere.
func TestWatchdogNil(t *testing.T) {
	var wd *Watchdog
	if wd.Evaluate(nil) != SevOK || wd.State() != SevOK {
		t.Error("nil watchdog is not ok")
	}
	if sev, rules := wd.Status(); sev != SevOK || rules != nil {
		t.Error("nil watchdog Status is not empty/ok")
	}
}

// TestGaugeFloorRule: a floor rule over the smallest released group size
// is ok before any window and before the gauge exists, ok at 0 (nothing
// released) and at or above the floor, and failing anywhere in between.
func TestGaugeFloorRule(t *testing.T) {
	const k = 5
	reg, rec, wd, _ := wdFixture(t,
		GaugeFloorRule("release_below_k", "min_size", k, "released group below k"))
	// No windows yet, then a window without the series: both ok.
	if wd.Evaluate(rec) != SevOK {
		t.Error("rule judged before any window existed")
	}
	rec.Scrape()
	if wd.Evaluate(rec) != SevOK {
		t.Error("rule judged an unregistered series")
	}
	g := reg.Gauge("min_size")
	for v := 0; v <= 2*k; v++ {
		g.Set(float64(v))
		rec.Scrape()
		want := SevOK
		if v > 0 && v < k {
			want = SevFailing
		}
		if got := wd.Evaluate(rec); got != want {
			t.Errorf("gauge at %d: %v, want %v", v, got, want)
		}
	}
}

func TestTrendRule(t *testing.T) {
	reg, rec, wd, _ := wdFixture(t,
		TrendRule("drift", "ks_mean", 8, 0.10, 0.05, "ks drifting"))
	g := reg.Gauge("ks_mean")

	// Flat series below the floor: never alerts, even with enough windows.
	for i := 0; i < 6; i++ {
		g.Set(0.01)
		rec.Scrape()
	}
	if got := wd.Evaluate(rec); got != SevOK {
		t.Fatalf("flat low series = %v, want ok", got)
	}

	// A clear rise above the floor degrades.
	for _, v := range []float64{0.02, 0.02, 0.02, 0.02, 0.18, 0.18, 0.18, 0.18} {
		g.Set(v)
		rec.Scrape()
	}
	if got := wd.Evaluate(rec); got == SevOK {
		t.Fatalf("rising series above floor judged ok, want degraded or failing")
	}

	// Settled at the higher plateau: halves agree again, back to ok.
	for i := 0; i < 8; i++ {
		g.Set(0.18)
		rec.Scrape()
	}
	if got := wd.Evaluate(rec); got != SevOK {
		t.Errorf("plateaued series = %v, want ok (trend rule watches rises, not levels)", got)
	}
}

func TestTrendRuleNeedsFourWindows(t *testing.T) {
	reg, rec, wd, _ := wdFixture(t,
		TrendRule("drift", "ks_mean", 8, 0.01, 0, "ks drifting"))
	g := reg.Gauge("ks_mean")
	for i, v := range []float64{0, 1, 2} {
		g.Set(v)
		rec.Scrape()
		if got := wd.Evaluate(rec); got != SevOK {
			t.Errorf("window %d: rule judged %v with < 4 windows of data", i+1, got)
		}
	}
}

func TestLatencyRegressionRule(t *testing.T) {
	reg, rec, wd, _ := wdFixture(t,
		LatencyRegressionRule("lat", "req_seconds", 2, "latency regressed"))
	buckets := []float64{0.001, 0.01, 0.1, 1}
	h := reg.Histogram("req_seconds", buckets)

	observeWindow := func(v float64, n int) {
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
		rec.Scrape()
	}

	// Three trafficked baseline windows around 1ms.
	for i := 0; i < 3; i++ {
		observeWindow(0.0005, 10)
		if got := wd.Evaluate(rec); got != SevOK {
			t.Fatalf("baseline window %d judged %v, want ok", i+1, got)
		}
	}
	// A single slow window is not a regression.
	observeWindow(0.5, 10)
	if got := wd.Evaluate(rec); got != SevOK {
		t.Fatalf("one slow window = %v, want ok (needs two consecutive)", got)
	}
	// Two consecutive slow windows are.
	observeWindow(0.5, 10)
	if got := wd.Evaluate(rec); got == SevOK {
		t.Fatalf("two consecutive slow windows judged ok, want degraded/failing")
	}
	// Recovery: two fast windows bring it back.
	observeWindow(0.0005, 10)
	observeWindow(0.0005, 10)
	if got := wd.Evaluate(rec); got != SevOK {
		t.Errorf("after recovery = %v, want ok", got)
	}
}

func TestImbalanceRule(t *testing.T) {
	// With two shards, max/mean is bounded by 2 (reached only when one
	// shard holds everything), so the thresholds sit below that.
	reg, rec, wd, _ := wdFixture(t,
		ImbalanceRule("imb", "shard_records", 1.5, 1.9, 100, "hot shard"))
	s0 := reg.Gauge("shard_records", "shard", "0")
	s1 := reg.Gauge("shard_records", "shard", "1")

	// Balanced load: ok.
	s0.Set(500)
	s1.Set(500)
	rec.Scrape()
	if got := wd.Evaluate(rec); got != SevOK {
		t.Fatalf("balanced shards = %v, want ok", got)
	}
	// Tiny totals never judged, however skewed.
	s0.Set(30)
	s1.Set(0)
	rec.Scrape()
	if got := wd.Evaluate(rec); got != SevOK {
		t.Fatalf("skew below judging floor = %v, want ok", got)
	}
	// A hot shard at 1.8× the mean degrades.
	s0.Set(900)
	s1.Set(100)
	rec.Scrape()
	if got := wd.Evaluate(rec); got != SevDegraded {
		t.Fatalf("max/mean 1.8 = %v, want degraded", got)
	}
	// Everything on one shard (ratio 2.0) fails.
	s0.Set(1000)
	s1.Set(0)
	rec.Scrape()
	if got := wd.Evaluate(rec); got != SevFailing {
		t.Errorf("total skew = %v, want failing", got)
	}
}
