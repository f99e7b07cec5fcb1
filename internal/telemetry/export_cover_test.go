package telemetry

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"strings"
	"testing"
)

// TestPrometheusNonFinite covers formatFloat's ±Inf branches through the
// text exposition.
func TestPrometheusNonFinite(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up").Set(math.Inf(1))
	reg.Gauge("down").Set(math.Inf(-1))

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "up +Inf") {
		t.Errorf("missing +Inf sample:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "down -Inf") {
		t.Errorf("missing -Inf sample:\n%s", buf.String())
	}
}

// TestNewLoggerTextLevels exercises the text handler and the warn/error
// level parsing, including the "warning" and "none" aliases.
func TestNewLoggerTextLevels(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "warning", "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown")
	if strings.Contains(buf.String(), "hidden") {
		t.Error("info line emitted at warn level")
	}
	if !strings.Contains(buf.String(), "shown") {
		t.Errorf("warn line missing: %q", buf.String())
	}

	buf.Reset()
	log, err = NewLogger(&buf, "error", "")
	if err != nil {
		t.Fatal(err)
	}
	log.Warn("hidden")
	log.Error("boom")
	if strings.Contains(buf.String(), "hidden") || !strings.Contains(buf.String(), "boom") {
		t.Errorf("error-level filtering wrong: %q", buf.String())
	}

	buf.Reset()
	none, err := NewLogger(&buf, "none", "json")
	if err != nil {
		t.Fatal(err)
	}
	none.Error("dropped")
	if buf.Len() != 0 {
		t.Errorf("none logger wrote output: %q", buf.String())
	}
}

// TestNopLoggerChains: With/WithGroup chains on the no-op logger keep
// dropping records (covers nopHandler.Handle/WithAttrs/WithGroup).
func TestNopLoggerChains(t *testing.T) {
	log := Nop().With("k", "v").WithGroup("g")
	log.Error("dropped", "x", 1)
	if log.Enabled(nil, 12) { // well above slog.LevelError
		t.Error("nop logger reports enabled at any level")
	}
	// Handle is gated behind Enabled in the slog front end; drive it
	// directly to prove it is a safe no-op too.
	if err := (nopHandler{}).Handle(context.Background(), slog.Record{}); err != nil {
		t.Errorf("nopHandler.Handle returned %v", err)
	}
	if Component(Nop(), "engine") == nil {
		t.Error("Component on nop logger returned nil")
	}
	if Component(nil, "engine") != Nop() {
		t.Error("Component on nil parent should fall back to the nop logger")
	}
}
