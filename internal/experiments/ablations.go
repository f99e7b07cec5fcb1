package experiments

import (
	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/metrics"
	"condensation/internal/rng"
)

// SplitAxisAblation quantifies the value of the paper's principal-axis
// split choice: dynamic condensation is run once with principal-axis
// splits and once with random-axis splits, reporting accuracy and µ per
// group size. Per the paper's argument, the principal axis minimizes child
// group variance and therefore preserves locality better.
func SplitAxisAblation(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation — dynamic split axis: principal (paper) vs random",
		Columns: []string{"k", "principal_accuracy", "random_accuracy", "principal_mu", "random_mu"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ accP, accR, muP, muR float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}
		for _, axis := range []core.SplitAxis{core.SplitPrincipal, core.SplitRandom} {
			c := cfg
			c.Options.SplitAxis = axis
			acc, _, err := anonymizeAndEvaluate(train, test, c, k, core.ModeDynamic, r.Split())
			if err != nil {
				return err
			}
			mu, _, err := anonymizeAndCompare(ds, c, k, core.ModeDynamic, r.Split())
			if err != nil {
				return err
			}
			if axis == core.SplitPrincipal {
				cells[i].accP = acc
				cells[i].muP = mu
			} else {
				cells[i].accR = acc
				cells[i].muR = mu
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var accP, accR, muP, muR float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			accP += c.accP
			accR += c.accR
			muP += c.muP
			muR += c.muR
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(accP/n), f(accR/n), f(muP/n), f(muR/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SynthesisAblation compares the paper's uniform eigen-synthesis with the
// Gaussian variant on static condensation: both match the group's first
// two moments, so accuracy and µ should be close; the uniform variant's
// bounded support keeps synthesized points inside the group locality.
func SynthesisAblation(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation — synthesis distribution: uniform (paper) vs gaussian",
		Columns: []string{"k", "uniform_accuracy", "gaussian_accuracy", "uniform_mu", "gaussian_mu"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ accU, accG, muU, muG float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}
		for _, synth := range []core.Synthesis{core.SynthesisUniform, core.SynthesisGaussian} {
			c := cfg
			c.Options.Synthesis = synth
			acc, _, err := anonymizeAndEvaluate(train, test, c, k, core.ModeStatic, r.Split())
			if err != nil {
				return err
			}
			mu, _, err := anonymizeAndCompare(ds, c, k, core.ModeStatic, r.Split())
			if err != nil {
				return err
			}
			if synth == core.SynthesisUniform {
				cells[i].accU = acc
				cells[i].muU = mu
			} else {
				cells[i].accG = acc
				cells[i].muG = mu
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var accU, accG, muU, muG float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			accU += c.accU
			accG += c.accG
			muU += c.muU
			muG += c.muG
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(accU/n), f(accG/n), f(muU/n), f(muG/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// LeftoverAblation measures the cost of the paper's leftover policy
// (absorb stragglers into their nearest groups) against keeping them as an
// undersized group, which would break the k-indistinguishability promise.
// It reports the achieved minimum group size and accuracy for both.
func LeftoverAblation(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation — static leftover policy: nearest-group (paper) vs own-group",
		Columns: []string{"k", "nearest_min_size", "own_min_size", "nearest_accuracy", "own_accuracy"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct {
		accN, accO float64
		minN, minO int
	}
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}
		for _, pol := range []core.Leftover{core.LeftoverNearestGroup, core.LeftoverOwnGroup} {
			c := cfg
			c.Options.Leftover = pol
			condenser, err := c.condenser(k, core.ModeStatic, r.Split())
			if err != nil {
				return err
			}
			anon, report, err := condenser.Anonymize(train)
			if err != nil {
				return err
			}
			acc, err := evaluate(anon, test, c)
			if err != nil {
				return err
			}
			minSize := minGroupSize(report)
			if pol == core.LeftoverNearestGroup {
				cells[i].accN = acc
				cells[i].minN = minSize
			} else {
				cells[i].accO = acc
				cells[i].minO = minSize
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var minN, minO int
		var accN, accO float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			accN += c.accN
			accO += c.accO
			if rep == 0 || c.minN < minN {
				minN = c.minN
			}
			if rep == 0 || c.minO < minO {
				minO = c.minO
			}
		}
		n := float64(reps)
		if err := t.AddRow(d(k), d(minN), d(minO), f(accN/n), f(accO/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func minGroupSize(report *core.Report) int {
	min := 0
	for i, cr := range report.Classes {
		if i == 0 || cr.MinGroupSize < min {
			min = cr.MinGroupSize
		}
	}
	return min
}

// ClusteringStudy checks the paper's "other data mining problems" remark:
// k-means centers found on anonymized data are matched against centers
// found on the original data; the mean center displacement (normalized by
// the data spread) is reported per group size.
func ClusteringStudy(ds *dataset.Dataset, clusters int, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Extension — k-means utility preservation on condensed data",
		Columns: []string{"k", "center_displacement", "inertia_original", "inertia_anonymized"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ disp, inOrig, inAnon float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		condenser, err := cfg.condenser(k, core.ModeStatic, r.Split())
		if err != nil {
			return err
		}
		anon, _, err := condenser.Anonymize(ds)
		if err != nil {
			return err
		}
		resOrig, err := clusterRecords(ds, clusters, r.Split())
		if err != nil {
			return err
		}
		resAnon, err := clusterRecords(anon, clusters, r.Split())
		if err != nil {
			return err
		}
		dsp, err := matchCenters(resOrig.Centers, resAnon.Centers)
		if err != nil {
			return err
		}
		cells[i] = cell{disp: dsp, inOrig: resOrig.Inertia, inAnon: resAnon.Inertia}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var disp, inOrig, inAnon float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			disp += c.disp
			inOrig += c.inOrig
			inAnon += c.inAnon
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(disp/n), f(inOrig/n), f(inAnon/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CompatibilityOnly computes µ for one mode across group sizes — used by
// benches that only need a single series.
func CompatibilityOnly(ds *dataset.Dataset, cfg Config, mode core.Mode) (map[int]float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	mus := make([]float64, len(cfg.GroupSizes))
	srcs := presplit(root, len(mus))
	err := cfg.runCells(len(mus), func(i int) error {
		mu, _, err := anonymizeAndCompare(ds, cfg, cfg.GroupSizes[i], mode, srcs[i])
		if err != nil {
			return err
		}
		mus[i] = mu
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(cfg.GroupSizes))
	for i, k := range cfg.GroupSizes {
		out[k] = mus[i]
	}
	return out, nil
}

// muBetween is a convenience wrapper for µ between two record sets.
func muBetween(a, b *dataset.Dataset) (float64, error) {
	return metrics.CovarianceCompatibility(a.X, b.X)
}
