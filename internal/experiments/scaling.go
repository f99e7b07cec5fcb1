package experiments

import (
	"fmt"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/metrics"
	"condensation/internal/rng"
)

// ScalingStudy checks the paper's data-set-size discussion: "when the
// overall data set size is large, it is more effectively possible to
// simultaneously achieve ... the robustness of larger group sizes as well
// as the effectiveness of using a small locality of the data ... whereas
// this cannot be achieved in a data set containing only 100 points."
// At a fixed group size k, the study sweeps the data-set size n (two
// Gaussian classes of controllable difficulty) and reports accuracy and µ:
// the gap to the original-data accuracy should close as n grows.
func ScalingStudy(k int, sizes []int, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("experiments: scaling study with k = %d", k)
	}
	if len(sizes) == 0 {
		sizes = []int{100, 200, 500, 1000, 2000}
	}
	for _, n := range sizes {
		if n < 4 {
			return nil, fmt.Errorf("experiments: scaling size %d too small", n)
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Scaling — fixed k=%d, growing data set size", k),
		Columns: []string{"n", "static_accuracy", "original_accuracy", "accuracy_gap", "static_mu"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ static, orig, mu float64 }
	cells := make([]cell, len(sizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		n, rep := sizes[i/reps], i%reps
		r := srcs[i]
		// Moderate separation keeps the problem non-trivial at every n.
		ds := datagen.TwoGaussians(cfg.Seed+uint64(n)+uint64(rep), n/2, 6, 4)
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}
		o, err := evaluate(train, test, cfg)
		if err != nil {
			return err
		}
		s, _, err := anonymizeAndEvaluate(train, test, cfg, k, core.ModeStatic, r)
		if err != nil {
			return err
		}
		condenser, err := cfg.condenser(k, core.ModeStatic, r.Split())
		if err != nil {
			return err
		}
		anon, _, err := condenser.Anonymize(ds)
		if err != nil {
			return err
		}
		m, err := metrics.CovarianceCompatibility(ds.X, anon.X)
		if err != nil {
			return err
		}
		cells[i] = cell{static: s, orig: o, mu: m}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ni, n := range sizes {
		var static, orig, mu float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ni*reps+rep]
			static += c.static
			orig += c.orig
			mu += c.mu
		}
		rf := float64(reps)
		if err := t.AddRow(d(n), f(static/rf), f(orig/rf), f(orig/rf-static/rf), f(mu/rf)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// FidelityStudy reports marginal distributional fidelity (mean per-
// attribute Kolmogorov–Smirnov statistic between original and anonymized
// records) alongside µ, for both synthesis modes. The KS statistic sees
// shape differences the covariance cannot, which is exactly where the
// uniform-vs-Gaussian synthesis ablation shows up.
func FidelityStudy(dsName string, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ds, err := datagen.ByName(dsName, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Fidelity — marginal KS and µ by synthesis mode (%s)", dsName),
		Columns: []string{"k", "uniform_ks", "gaussian_ks", "uniform_mu", "gaussian_mu"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	// The sequential loop drew one stream per (k, rep, synthesis) in that
	// nesting order; each cell is a (k, rep) pair holding both modes.
	type cell struct{ ksU, ksG, muU, muG float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, 2*len(cells))
	err = cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		for si, synth := range []core.Synthesis{core.SynthesisUniform, core.SynthesisGaussian} {
			c := cfg
			c.Options.Synthesis = synth
			condenser, err := c.condenser(k, core.ModeStatic, srcs[2*i+si])
			if err != nil {
				return err
			}
			anon, _, err := condenser.Anonymize(ds)
			if err != nil {
				return err
			}
			ks, err := metrics.MeanMarginalKS(ds.X, anon.X)
			if err != nil {
				return err
			}
			mu, err := metrics.CovarianceCompatibility(ds.X, anon.X)
			if err != nil {
				return err
			}
			if synth == core.SynthesisUniform {
				cells[i].ksU = ks
				cells[i].muU = mu
			} else {
				cells[i].ksG = ks
				cells[i].muG = mu
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var ksU, ksG, muU, muG float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			ksU += c.ksU
			ksG += c.ksG
			muU += c.muU
			muG += c.muG
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(ksU/n), f(ksG/n), f(muU/n), f(muG/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
