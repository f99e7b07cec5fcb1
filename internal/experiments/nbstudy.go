package experiments

import (
	"fmt"

	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/nb"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// NaiveBayesStudy compares three ways of fitting the same Gaussian naive
// Bayes model under condensation:
//
//	original    — fitted on the raw training records (no privacy),
//	from-stats  — fitted *directly from the condensed group statistics*,
//	              no synthesis step (moment-exact: merging groups recovers
//	              the per-class moments the model needs),
//	synthesized — fitted on the anonymized records, the paper's standard
//	              "existing algorithm on regenerated data" route.
//
// The first two columns should agree to round-off at every k (the study's
// point); the third shows the extra noise synthesis adds for moment-based
// learners.
func NaiveBayesStudy(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds.Task != dataset.Classification {
		return nil, fmt.Errorf("experiments: naive Bayes study needs classification data, got %v", ds.Task)
	}
	t := &Table{
		Title:   "Extension — Gaussian naive Bayes: records vs statistics-direct vs synthesized",
		Columns: []string{"k", "nb_original", "nb_from_stats", "nb_synthesized"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ orig, direct, synth float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}

		clfO, err := nb.Train(train)
		if err != nil {
			return err
		}
		accO, err := clfO.Accuracy(test)
		if err != nil {
			return err
		}

		// Condense per class once, in ascending label order so every class
		// receives the same r.Split() stream on every run (map iteration
		// order would shuffle the streams between runs); reuse for both
		// privacy paths.
		classGroups := make(map[int][]*stats.Group)
		anon := &dataset.Dataset{Task: dataset.Classification, Attrs: train.Attrs, ClassNames: train.ClassNames}
		byClass := train.ByClass()
		for label := 0; label < train.NumClasses(); label++ {
			idx := byClass[label]
			if len(idx) == 0 {
				continue
			}
			recs := make([]mat.Vector, len(idx))
			for i, ri := range idx {
				recs[i] = train.X[ri]
			}
			condenser, err := cfg.condenser(k, core.ModeStatic, r.Split())
			if err != nil {
				return err
			}
			cond, err := condenser.Static(recs)
			if err != nil {
				return err
			}
			classGroups[label] = cond.Groups()
			pts, err := cond.Synthesize(r.Split())
			if err != nil {
				return err
			}
			for _, x := range pts {
				if err := anon.Append(x, label, 0); err != nil {
					return err
				}
			}
		}

		clfD, err := nb.FromGroups(train.NumClasses(), classGroups)
		if err != nil {
			return err
		}
		accD, err := clfD.Accuracy(test)
		if err != nil {
			return err
		}

		clfS, err := nb.Train(anon)
		if err != nil {
			return err
		}
		accS, err := clfS.Accuracy(test)
		if err != nil {
			return err
		}

		cells[i] = cell{orig: accO, direct: accD, synth: accS}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var orig, direct, synth float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			orig += c.orig
			direct += c.direct
			synth += c.synth
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(orig/n), f(direct/n), f(synth/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
