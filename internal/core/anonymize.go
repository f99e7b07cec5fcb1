package core

import (
	"context"
	"errors"
	"fmt"

	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// Mode selects between the paper's two group-construction regimes.
type Mode int

const (
	// ModeStatic condenses the entire data set at once (Figure 1).
	ModeStatic Mode = iota
	// ModeDynamic condenses an initial fraction statically and streams the
	// remaining records through dynamic group maintenance (Figure 2).
	ModeDynamic
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// AnonymizeConfig configures data-set level anonymization.
type AnonymizeConfig struct {
	// K is the indistinguishability level (minimum group size).
	K int
	// Mode selects static or dynamic condensation.
	Mode Mode
	// Options tunes synthesis, split axis, and leftover policy.
	Options Options
	// InitialFraction is the fraction of records (per class) used as the
	// dynamic mode's initial static database; the remainder is streamed.
	// Values outside (0, 1] fall back to the default 0.25. Ignored for
	// static mode.
	InitialFraction float64
	// Search selects the static neighbour-search backend (default
	// SearchAuto). It changes speed, never the condensed statistics (up to
	// distance ties).
	Search NeighborSearch
	// Parallelism bounds the static distance sweep's worker goroutines;
	// values < 1 mean runtime.NumCPU().
	Parallelism int
	// Telemetry optionally records stage timings and group counters into a
	// metrics registry. Nil disables recording; the anonymized output is
	// bit-identical either way.
	Telemetry *telemetry.Registry
	// Tracer optionally records sampled execution spans for the
	// condensation and synthesis stages. Nil disables tracing; observe-only
	// like Telemetry.
	Tracer *telemetry.Tracer
}

// ClassReport describes the condensation of one class (or of the whole
// data set, for regression).
type ClassReport struct {
	// Label is the class index, or -1 for regression.
	Label int
	// Records is the number of original records condensed.
	Records int
	// Groups is the number of condensed groups produced.
	Groups int
	// AvgGroupSize is Records/Groups.
	AvgGroupSize float64
	// MinGroupSize is the smallest group, the achieved
	// indistinguishability level.
	MinGroupSize int
	// Cond is the class's condensation — the paper's H set, the only
	// state that needs persisting to re-synthesize later.
	Cond *Condensation
}

// Report aggregates the outcome of an Anonymize call.
type Report struct {
	// Classes holds one entry per condensed class.
	Classes []ClassReport
}

// TotalGroups returns the number of groups across all classes.
func (r *Report) TotalGroups() int {
	var n int
	for _, c := range r.Classes {
		n += c.Groups
	}
	return n
}

// TotalRecords returns the number of records across all classes.
func (r *Report) TotalRecords() int {
	var n int
	for _, c := range r.Classes {
		n += c.Records
	}
	return n
}

// AvgGroupSize returns the overall average group size — the x-coordinate
// used by every figure in the paper's evaluation.
func (r *Report) AvgGroupSize() float64 {
	if g := r.TotalGroups(); g > 0 {
		return float64(r.TotalRecords()) / float64(g)
	}
	return 0
}

// Anonymize produces a privacy-preserving replacement for ds.
//
// For classification data sets each class is condensed separately
// (Section 3.1 of the paper: "separate sets of data were generated from
// each of the different classes") and the synthesized records inherit
// their group's class, so any unmodified classifier can consume the
// output.
//
// For regression data sets the target is appended as an extra attribute
// and condensed jointly with the features, so the synthesized data
// preserves feature–target correlations; the extra attribute is split
// back off into the synthesized targets.
//
// Deprecated: use the Condenser facade — NewCondenser(k, WithSeed(s),
// WithMode(m), ...).Anonymize(ds).
func Anonymize(ds *dataset.Dataset, cfg AnonymizeConfig, r *rng.Source) (*dataset.Dataset, *Report, error) {
	if r == nil {
		return nil, nil, errors.New("core: nil random source")
	}
	if err := ds.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: input data set: %w", err)
	}
	if ds.Len() == 0 {
		return nil, nil, errors.New("core: empty data set")
	}
	if cfg.K < 1 {
		return nil, nil, fmt.Errorf("core: indistinguishability level k = %d, must be ≥ 1", cfg.K)
	}
	switch ds.Task {
	case dataset.Classification:
		return anonymizeClassification(ds, cfg, r)
	case dataset.Regression:
		return anonymizeRegression(ds, cfg, r)
	default:
		return nil, nil, fmt.Errorf("core: unsupported task %v", ds.Task)
	}
}

func anonymizeClassification(ds *dataset.Dataset, cfg AnonymizeConfig, r *rng.Source) (*dataset.Dataset, *Report, error) {
	out := &dataset.Dataset{
		Name:       ds.Name + "-anonymized",
		Attrs:      append([]string(nil), ds.Attrs...),
		ClassNames: append([]string(nil), ds.ClassNames...),
		Task:       dataset.Classification,
	}
	report := &Report{}
	byClass := ds.ByClass()
	for label := 0; label < ds.NumClasses(); label++ {
		idx := byClass[label]
		if len(idx) == 0 {
			continue
		}
		recs := make([]mat.Vector, len(idx))
		for i, ri := range idx {
			recs[i] = ds.X[ri]
		}
		cond, err := condenseRecords(recs, cfg, r.Split())
		if err != nil {
			return nil, nil, fmt.Errorf("core: class %d: %w", label, err)
		}
		synth, err := cond.Synthesize(r.Split())
		if err != nil {
			return nil, nil, fmt.Errorf("core: synthesizing class %d: %w", label, err)
		}
		for _, x := range synth {
			if err := out.Append(x, label, 0); err != nil {
				return nil, nil, err
			}
		}
		report.Classes = append(report.Classes, classReport(label, len(recs), cond))
	}
	return out, report, nil
}

func anonymizeRegression(ds *dataset.Dataset, cfg AnonymizeConfig, r *rng.Source) (*dataset.Dataset, *Report, error) {
	d := ds.Dim()
	recs := make([]mat.Vector, ds.Len())
	for i, x := range ds.X {
		joint := make(mat.Vector, d+1)
		copy(joint, x)
		joint[d] = ds.Targets[i]
		recs[i] = joint
	}
	cond, err := condenseRecords(recs, cfg, r.Split())
	if err != nil {
		return nil, nil, err
	}
	synth, err := cond.Synthesize(r.Split())
	if err != nil {
		return nil, nil, err
	}
	out := &dataset.Dataset{
		Name:  ds.Name + "-anonymized",
		Attrs: append([]string(nil), ds.Attrs...),
		Task:  dataset.Regression,
	}
	for _, joint := range synth {
		x := joint[:d].Clone()
		if err := out.Append(x, 0, joint[d]); err != nil {
			return nil, nil, err
		}
	}
	report := &Report{Classes: []ClassReport{classReport(-1, len(recs), cond)}}
	return out, report, nil
}

// condenseRecords runs the configured construction regime on one record
// set. The returned condensation inherits cfg.Parallelism for its
// synthesis fan-out.
func condenseRecords(recs []mat.Vector, cfg AnonymizeConfig, r *rng.Source) (*Condensation, error) {
	search := searchConfig{Search: cfg.Search, Parallelism: cfg.Parallelism}
	switch cfg.Mode {
	case ModeStatic:
		cond, _, err := staticCondense(context.Background(), recs, cfg.K, r, cfg.Options, search, cfg.Telemetry, cfg.Tracer)
		if cond != nil {
			cond.SetTracer(cfg.Tracer)
		}
		return cond, err
	case ModeDynamic:
		frac := cfg.InitialFraction
		if frac <= 0 || frac > 1 {
			frac = 0.25
		}
		initial := int(frac * float64(len(recs)))
		// The initial database must support at least one full group; the
		// stream needs at least the records not in the initial database.
		if initial < cfg.K {
			initial = cfg.K
		}
		if initial > len(recs) {
			initial = len(recs)
		}
		base, _, err := staticCondense(context.Background(), recs[:initial], cfg.K, r, cfg.Options, search, cfg.Telemetry, cfg.Tracer)
		if err != nil {
			return nil, err
		}
		dyn, err := NewDynamic(base, r)
		if err != nil {
			return nil, err
		}
		dyn.SetTelemetry(cfg.Telemetry)
		dyn.SetTracer(cfg.Tracer)
		for i, x := range recs[initial:] {
			if err := dyn.Add(x); err != nil {
				return nil, fmt.Errorf("core: stream record %d: %w", i, err)
			}
		}
		cond := dyn.Condensation()
		cond.SetParallelism(cfg.Parallelism)
		return cond, nil
	default:
		return nil, fmt.Errorf("core: unsupported mode %v", cfg.Mode)
	}
}

func classReport(label, records int, cond *Condensation) ClassReport {
	return ClassReport{
		Label:        label,
		Records:      records,
		Groups:       cond.NumGroups(),
		AvgGroupSize: cond.AverageGroupSize(),
		MinGroupSize: cond.MinGroupSize(),
		Cond:         cond,
	}
}
