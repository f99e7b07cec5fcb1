package core

import (
	"errors"
	"fmt"

	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
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

// Anonymize produces a privacy-preserving replacement for ds using the
// configured mode.
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
func (c *Condenser) Anonymize(ds *dataset.Dataset) (*dataset.Dataset, *Report, error) {
	if err := ds.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: input data set: %w", err)
	}
	if ds.Len() == 0 {
		return nil, nil, errors.New("core: empty data set")
	}
	r := c.rng()
	switch ds.Task {
	case dataset.Classification:
		return c.anonymizeClassification(ds, r)
	case dataset.Regression:
		return c.anonymizeRegression(ds, r)
	default:
		return nil, nil, fmt.Errorf("core: unsupported task %v", ds.Task)
	}
}

func (c *Condenser) anonymizeClassification(ds *dataset.Dataset, r *rng.Source) (*dataset.Dataset, *Report, error) {
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
		cond, err := c.condenseRecords(recs, r.Split())
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

func (c *Condenser) anonymizeRegression(ds *dataset.Dataset, r *rng.Source) (*dataset.Dataset, *Report, error) {
	d := ds.Dim()
	recs := make([]mat.Vector, ds.Len())
	for i, x := range ds.X {
		joint := make(mat.Vector, d+1)
		copy(joint, x)
		joint[d] = ds.Targets[i]
		recs[i] = joint
	}
	cond, err := c.condenseRecords(recs, r.Split())
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
// set. The returned condensation inherits the configured parallelism for
// its synthesis fan-out.
func (c *Condenser) condenseRecords(recs []mat.Vector, r *rng.Source) (*Condensation, error) {
	if c.mode == ModeStatic {
		cond, _, err := c.staticCondense(recs, r)
		if cond != nil {
			cond.SetTracer(c.trace)
		}
		return cond, err
	}
	frac := c.initial
	if frac <= 0 || frac > 1 {
		frac = 0.25
	}
	initial := int(frac * float64(len(recs)))
	// The initial database must support at least one full group; the
	// stream needs at least the records not in the initial database.
	if initial < c.k {
		initial = c.k
	}
	if initial > len(recs) {
		initial = len(recs)
	}
	dyn, err := c.bootstrap(recs[:initial], r)
	if err != nil {
		return nil, err
	}
	for i, x := range recs[initial:] {
		if err := dyn.Add(x); err != nil {
			return nil, fmt.Errorf("core: stream record %d: %w", i, err)
		}
	}
	cond := dyn.Condensation()
	cond.SetParallelism(c.search.Parallelism)
	return cond, nil
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
