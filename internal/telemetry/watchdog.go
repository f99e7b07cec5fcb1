package telemetry

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Severity orders the health states a watchdog rule (and the service as a
// whole) moves through: ok → degraded → failing. The overall state is the
// worst state of any rule.
type Severity int

const (
	SevOK Severity = iota
	SevDegraded
	SevFailing
)

// String returns the state name /healthz and /v1/health/rules report.
func (s Severity) String() string {
	switch s {
	case SevDegraded:
		return "degraded"
	case SevFailing:
		return "failing"
	default:
		return "ok"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a severity name — the inverse of MarshalJSON, for
// clients (condense -watch) reading /v1/health/rules.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"ok"`:
		*s = SevOK
	case `"degraded"`:
		*s = SevDegraded
	case `"failing"`:
		*s = SevFailing
	default:
		return fmt.Errorf("telemetry: unknown severity %s", b)
	}
	return nil
}

// Rule is one health check evaluated over the flight recorder's windows
// after every scrape. Eval must be a pure read of the recorder (and any
// private state the rule closure carries) — rules observe trends, they
// never change them.
type Rule struct {
	// Name labels the rule everywhere: rule states, slog transitions, and
	// the condense_alerts_total{rule=...} counter.
	Name string
	// Description says what the rule watches, for /v1/health/rules readers.
	Description string
	// Eval returns the rule's current severity and a human-readable detail
	// line explaining it.
	Eval func(rec *Recorder) (Severity, string)
}

// RuleStatus is one rule's public state in /v1/health/rules.
type RuleStatus struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	State       Severity `json:"state"`
	Detail      string   `json:"detail,omitempty"`
	// Since is when the rule entered its current state; LastTransition is
	// when it last changed state (zero until the first transition), and
	// Transitions counts changes since startup.
	Since          time.Time `json:"since"`
	LastTransition time.Time `json:"last_transition"`
	Transitions    int       `json:"transitions"`
	// Alerts counts escalations (transitions into a worse state) — the
	// value of condense_alerts_total{rule=Name}.
	Alerts uint64 `json:"alerts"`
}

// Watchdog metric names. The alert counter is the paging surface: it only
// advances when a rule escalates, so any increase marks a fresh incident;
// the state gauges mirror the current severities (0 ok, 1 degraded, 2
// failing) for dashboards.
const (
	MetricAlerts      = "condense_alerts_total"
	MetricHealthState = "condense_health_state"
	MetricRuleState   = "condense_health_rule_state"
	MetricEvaluations = "condense_health_evaluations_total"
)

// Watchdog evaluates a fixed rule set over the flight recorder after each
// scrape and maintains the per-rule state machine. State transitions are
// logged (Info back to ok, Warn into degraded, Error into failing),
// escalations advance condense_alerts_total{rule}, and the current
// severities are mirrored into state gauges. A nil *Watchdog is the
// disabled watchdog: State reports SevOK and every method no-ops.
type Watchdog struct {
	mu     sync.Mutex
	rules  []Rule
	status []RuleStatus
	log    *slog.Logger

	alerts     []*Counter
	ruleStates []*Gauge
	state      *Gauge
	evals      *Counter

	// jr, when set, receives one watchdog_transition event per rule state
	// change; genFn supplies the generation to stamp it with.
	jr    *Journal
	genFn func() uint64
}

// NewWatchdog builds a watchdog over the given rules, resolving its alert
// counters and state gauges from reg (nil reg disables the metrics, not
// the watchdog) and logging transitions to log (nil means silent). Every
// rule starts in SevOK, and its alert counter exists (at 0) immediately,
// so dashboards can join on the full rule set before anything goes wrong.
func NewWatchdog(reg *Registry, log *slog.Logger, rules ...Rule) *Watchdog {
	if log == nil {
		log = Nop()
	}
	now := time.Now()
	w := &Watchdog{
		rules: rules,
		log:   log,
		state: reg.Gauge(MetricHealthState),
		evals: reg.Counter(MetricEvaluations),
	}
	for _, r := range rules {
		w.status = append(w.status, RuleStatus{
			Name:        r.Name,
			Description: r.Description,
			State:       SevOK,
			Since:       now,
		})
		w.alerts = append(w.alerts, reg.Counter(MetricAlerts, "rule", r.Name))
		g := reg.Gauge(MetricRuleState, "rule", r.Name)
		g.Set(0)
		w.ruleStates = append(w.ruleStates, g)
	}
	w.state.Set(0)
	return w
}

// SetJournal attaches a lifecycle journal: every rule state transition is
// then also recorded as a watchdog_transition event, stamped with the
// generation gen reports at transition time (nil gen stamps 0), so health
// flaps line up with the release ledger. A nil journal disables.
// Observe-only, like the transition log lines.
func (w *Watchdog) SetJournal(j *Journal, gen func() uint64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.jr, w.genFn = j, gen
	w.mu.Unlock()
}

// Evaluate runs every rule against the recorder's current windows,
// applies state transitions, and returns the overall (worst) severity.
// It is what the scraper loop calls after each scrape.
func (w *Watchdog) Evaluate(rec *Recorder) Severity {
	if w == nil {
		return SevOK
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.evals.Inc()
	overall := SevOK
	now := time.Now()
	for i, r := range w.rules {
		sev, detail := r.Eval(rec)
		st := &w.status[i]
		st.Detail = detail
		if sev != st.State {
			from := st.State
			st.State = sev
			st.Since = now
			st.LastTransition = now
			st.Transitions++
			if sev > from {
				w.alerts[i].Inc()
				st.Alerts++
			}
			w.ruleStates[i].Set(float64(sev))
			level := slog.LevelInfo
			switch sev {
			case SevDegraded:
				level = slog.LevelWarn
			case SevFailing:
				level = slog.LevelError
			}
			w.log.Log(context.Background(), level, "health rule transition",
				slog.String("rule", r.Name),
				slog.String("from", from.String()),
				slog.String("to", sev.String()),
				slog.String("detail", detail))
			if w.jr != nil {
				var gen uint64
				if w.genFn != nil {
					gen = w.genFn()
				}
				w.jr.Record(JournalEvent{
					Type:       EventWatchdogTransition,
					Shard:      JournalShardNone,
					Generation: gen,
					Detail:     fmt.Sprintf("%s: %s → %s (%s)", r.Name, from, sev, detail),
				})
			}
		}
		if sev > overall {
			overall = sev
		}
	}
	w.state.Set(float64(overall))
	return overall
}

// State returns the overall severity: the worst current rule state. A nil
// or rule-less watchdog is SevOK.
func (w *Watchdog) State() Severity {
	if w == nil {
		return SevOK
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	overall := SevOK
	for i := range w.status {
		if w.status[i].State > overall {
			overall = w.status[i].State
		}
	}
	return overall
}

// Status returns the overall severity and a copy of every rule's state,
// in rule order.
func (w *Watchdog) Status() (Severity, []RuleStatus) {
	if w == nil {
		return SevOK, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	overall := SevOK
	out := make([]RuleStatus, len(w.status))
	copy(out, w.status)
	for _, st := range out {
		if st.State > overall {
			overall = st.State
		}
	}
	return overall, out
}

// GaugeFloorRule builds a rule that fails when the named gauge's latest
// value is positive but below floor. Zero is exempt: the rule watches a
// minimum over a set that may still be empty — the smallest released
// group (condense_release_min_group_size) reads 0 while nothing is
// released and must otherwise hold at least k records.
func GaugeFloorRule(name, series string, floor float64, description string) Rule {
	return Rule{
		Name:        name,
		Description: description,
		Eval: func(rec *Recorder) (Severity, string) {
			w, ok := rec.LastWindow()
			if !ok {
				return SevOK, "no windows recorded yet"
			}
			v, ok := w.Gauges[series]
			if !ok {
				return SevOK, series + " not yet registered"
			}
			detail := fmt.Sprintf("%s = %g (must be 0 or at least %g)", series, float64(v), floor)
			if v > 0 && float64(v) < floor {
				return SevFailing, detail
			}
			return SevOK, detail
		},
	}
}

// TrendRule builds a rule that degrades when a gauge is trending up: over
// the last window windows carrying the gauge, the mean of the newer half
// must exceed the mean of the older half by at least minRise AND sit at
// or above floor. The floor keeps noise below the interesting range from
// alerting; at least four carrying windows are required before the rule
// judges at all. A rise of 2·minRise (still above floor) is failing.
func TrendRule(name, series string, window int, minRise, floor float64, description string) Rule {
	return Rule{
		Name:        name,
		Description: description,
		Eval: func(rec *Recorder) (Severity, string) {
			var vals []float64
			for _, v := range rec.GaugeSeries(series, window) {
				if !math.IsNaN(v) {
					vals = append(vals, v)
				}
			}
			if len(vals) < 4 {
				return SevOK, fmt.Sprintf("%s: %d window(s) of data, need 4", series, len(vals))
			}
			half := len(vals) / 2
			older := mean(vals[:half])
			newer := mean(vals[half:])
			rise := newer - older
			detail := fmt.Sprintf("%s: %.4g → %.4g over %d windows (rise %.4g)",
				series, older, newer, len(vals), rise)
			if newer >= floor && rise >= 2*minRise {
				return SevFailing, detail
			}
			if newer >= floor && rise >= minRise {
				return SevDegraded, detail
			}
			return SevOK, detail
		},
	}
}

// LatencyRegressionRule builds a rule that compares a latency histogram's
// windowed p95 against a startup baseline: the median of the first
// baselineOf trafficked windows (windows whose CountDelta > 0) becomes
// the baseline, and the rule degrades when the two most recent trafficked
// windows both exceed factor × baseline (fails at 2·factor). Until the
// baseline is captured the rule reports ok.
func LatencyRegressionRule(name, series string, factor float64, description string) Rule {
	const baselineOf = 3
	var baseline []float64
	var fixed float64
	return Rule{
		Name:        name,
		Description: description,
		Eval: func(rec *Recorder) (Severity, string) {
			// The baseline is rebuilt from the earliest trafficked windows on
			// every evaluation until it has baselineOf samples, then frozen —
			// so a latency regression can never drag its own baseline up.
			qs := rec.QuantileSeries(series, 0.95, 0)
			var seen []float64
			for _, v := range qs {
				if !math.IsNaN(v) {
					seen = append(seen, v)
				}
			}
			if len(baseline) < baselineOf {
				if len(seen) > baselineOf {
					seen = seen[:baselineOf]
				}
				baseline = append(baseline[:0], seen...)
				if len(baseline) < baselineOf {
					return SevOK, fmt.Sprintf("%s: collecting baseline (%d/%d trafficked windows)",
						series, len(baseline), baselineOf)
				}
				fixed = median(baseline)
			}
			if len(seen) < 2 {
				return SevOK, series + ": no traffic yet"
			}
			a, b := seen[len(seen)-2], seen[len(seen)-1]
			detail := fmt.Sprintf("%s: p95 %.4gs/%.4gs vs baseline %.4gs (×%.1f allowed)",
				series, a, b, fixed, factor)
			if fixed > 0 && a > 2*factor*fixed && b > 2*factor*fixed {
				return SevFailing, detail
			}
			if fixed > 0 && a > factor*fixed && b > factor*fixed {
				return SevDegraded, detail
			}
			return SevOK, detail
		},
	}
}

// ImbalanceRule builds a rule over a labeled gauge family (e.g.
// condense_shard_records{shard="i"}): in the latest window it computes
// the max/mean ratio across the family's series and degrades at ratio ≥
// degrade, fails at ratio ≥ fail. Families with fewer than two series or
// less than minTotal summed mass report ok — a three-record stream on
// four shards is always "imbalanced" and never interesting.
func ImbalanceRule(name, family string, degrade, fail, minTotal float64, description string) Rule {
	return Rule{
		Name:        name,
		Description: description,
		Eval: func(rec *Recorder) (Severity, string) {
			w, ok := rec.LastWindow()
			if !ok {
				return SevOK, "no windows recorded yet"
			}
			var vals []float64
			var total, max float64
			for id, v := range w.Gauges {
				if !strings.HasPrefix(id, family+"{") {
					continue
				}
				f := float64(v)
				vals = append(vals, f)
				total += f
				if f > max {
					max = f
				}
			}
			if len(vals) < 2 {
				return SevOK, family + ": fewer than two series"
			}
			if total < minTotal {
				return SevOK, fmt.Sprintf("%s: total %.0f below judging floor %.0f", family, total, minTotal)
			}
			mean := total / float64(len(vals))
			ratio := max / mean
			detail := fmt.Sprintf("%s: max/mean = %.2f over %d series (degrade ≥ %.2f)",
				family, ratio, len(vals), degrade)
			if ratio >= fail {
				return SevFailing, detail
			}
			if ratio >= degrade {
				return SevDegraded, detail
			}
			return SevOK, detail
		},
	}
}

// mean averages a non-empty slice.
func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// median returns the middle value of a non-empty slice (the lower middle
// for even lengths), without mutating the input.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
