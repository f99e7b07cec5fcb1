package experiments

import (
	"fmt"

	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/linreg"
	"condensation/internal/mat"
	"condensation/internal/rng"
)

// LinRegStudy is the regression counterpart of NaiveBayesStudy: ordinary
// least squares fitted on the raw records, directly from jointly condensed
// group statistics (moment-exact), and on synthesized anonymized records,
// scored by out-of-sample R². The first two columns must coincide.
func LinRegStudy(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds.Task != dataset.Regression {
		return nil, fmt.Errorf("experiments: linear regression study needs regression data, got %v", ds.Task)
	}
	t := &Table{
		Title:   "Extension — OLS regression: records vs statistics-direct vs synthesized (R²)",
		Columns: []string{"k", "ols_original", "ols_from_stats", "ols_synthesized"},
	}
	root := rng.New(cfg.Seed)
	opts := linreg.Options{Ridge: 1e-9}
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
		mO, err := linreg.Train(train, opts)
		if err != nil {
			return err
		}
		r2O, err := mO.R2(test)
		if err != nil {
			return err
		}

		// Joint condensation: features ‖ target, once per k and rep.
		d := train.Dim()
		joint := make([]mat.Vector, train.Len())
		for i, x := range train.X {
			row := make(mat.Vector, d+1)
			copy(row, x)
			row[d] = train.Targets[i]
			joint[i] = row
		}
		condenser, err := cfg.condenser(k, core.ModeStatic, r.Split())
		if err != nil {
			return err
		}
		cond, err := condenser.Static(joint)
		if err != nil {
			return err
		}
		mD, err := linreg.FromGroups(cond.Groups(), opts)
		if err != nil {
			return err
		}
		r2D, err := mD.R2(test)
		if err != nil {
			return err
		}

		pts, err := cond.Synthesize(r.Split())
		if err != nil {
			return err
		}
		anon := &dataset.Dataset{Task: dataset.Regression, Attrs: train.Attrs}
		for _, row := range pts {
			if err := anon.Append(row[:d].Clone(), 0, row[d]); err != nil {
				return err
			}
		}
		mS, err := linreg.Train(anon, opts)
		if err != nil {
			return err
		}
		r2S, err := mS.R2(test)
		if err != nil {
			return err
		}

		cells[i] = cell{orig: r2O, direct: r2D, synth: r2S}
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
