package experiments

import (
	"fmt"
	"math"

	"condensation/internal/cluster"
	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/kanon"
	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/metrics"
	"condensation/internal/perturb"
	"condensation/internal/privacy"
	"condensation/internal/rng"
)

// clusterRecords runs k-means over a data set's records.
func clusterRecords(ds *dataset.Dataset, k int, r *rng.Source) (*cluster.Result, error) {
	return cluster.KMeans(ds.X, k, r, cluster.Options{})
}

// matchCenters reports the mean displacement between matched center sets.
func matchCenters(a, b []mat.Vector) (float64, error) {
	return cluster.MatchCenters(a, b)
}

// PerturbationComparison contrasts condensation with the Agrawal–Srikant
// perturbation baseline. For each noise level σ it trains the
// distribution-based (marginals-only) classifier on perturbed data and
// measures µ between original and perturbed records; for each group size k
// it trains the unmodified nearest-neighbour classifier on condensed data.
// The table shows the paper's headline claim: at comparable privacy,
// condensation keeps both the classifier and the correlation structure
// intact, while the perturbation route is limited to marginals.
func PerturbationComparison(ds *dataset.Dataset, sigmas []float64, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds.Task != dataset.Classification {
		return nil, fmt.Errorf("experiments: perturbation comparison needs classification data, got %v", ds.Task)
	}
	t := &Table{
		Title:   "Baseline — condensation vs additive perturbation (Agrawal–Srikant)",
		Columns: []string{"method", "parameter", "accuracy", "mu", "privacy"},
	}
	root := rng.New(cfg.Seed)

	train, test, err := ds.TrainTestSplit(cfg.TrainFraction, root.Split())
	if err != nil {
		return nil, err
	}

	// Original-data reference row.
	origAcc, err := evaluate(train, test, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.AddRow("original", "-", f(origAcc), f(1), "none"); err != nil {
		return nil, err
	}

	// Each σ row and each k row is one independent cell drawing two
	// pre-split streams, in the order the sequential loops consumed them.
	srcs := presplit(root, 2*(len(sigmas)+len(cfg.GroupSizes)))
	rows := make([][]string, len(sigmas)+len(cfg.GroupSizes))
	err = cfg.runCells(len(rows), func(i int) error {
		r1, r2 := srcs[2*i], srcs[2*i+1]
		if i < len(sigmas) {
			// Perturbation row: σ is in units of per-dimension standard
			// deviations (data standardized internally for noise
			// calibration).
			sigma := sigmas[i]
			p := perturb.Perturber{Std: sigma * meanStd(train), Family: perturb.NoiseGaussian}
			clf, err := perturb.TrainDistributionClassifier(train, p, perturb.ReconstructOptions{}, r1)
			if err != nil {
				return err
			}
			preds, err := clf.PredictAll(test)
			if err != nil {
				return err
			}
			acc, err := metrics.Accuracy(preds, test.Labels)
			if err != nil {
				return err
			}
			noisy, err := p.Perturb(ds.X, r2)
			if err != nil {
				return err
			}
			mu, err := metrics.CovarianceCompatibility(ds.X, noisy)
			if err != nil {
				return err
			}
			interval, err := p.PrivacyInterval(0.95)
			if err != nil {
				return err
			}
			rows[i] = []string{"perturbation", fmt.Sprintf("sigma=%.2f", sigma), f(acc), f(mu),
				fmt.Sprintf("95%%-interval=%.2f", interval)}
			return nil
		}
		// Condensation row.
		k := cfg.GroupSizes[i-len(sigmas)]
		acc, _, err := anonymizeAndEvaluate(train, test, cfg, k, core.ModeStatic, r1)
		if err != nil {
			return err
		}
		mu, _, err := anonymizeAndCompare(ds, cfg, k, core.ModeStatic, r2)
		if err != nil {
			return err
		}
		rows[i] = []string{"condensation", fmt.Sprintf("k=%d", k), f(acc), f(mu),
			fmt.Sprintf("reident<=1/%d", k)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// meanStd returns the mean per-attribute standard deviation of a data set,
// used to express noise levels in natural data units.
func meanStd(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 1
	}
	d := ds.Dim()
	var total float64
	col := make([]float64, ds.Len())
	for j := 0; j < d; j++ {
		for i, x := range ds.X {
			col[i] = x[j]
		}
		total += stdDev(col)
	}
	return total / float64(d)
}

func stdDev(xs []float64) float64 {
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	if ss <= 0 {
		return 0
	}
	return math.Sqrt(ss / n)
}

// KAnonymityComparison contrasts condensation with a Mondrian-style
// multidimensional k-anonymity baseline at matched k: records are
// generalized to their equivalence-class centroid, the classifier is
// trained on the generalized data, and information loss is reported both
// as µ and as the normalized certainty penalty.
func KAnonymityComparison(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds.Task != dataset.Classification {
		return nil, fmt.Errorf("experiments: k-anonymity comparison needs classification data, got %v", ds.Task)
	}
	t := &Table{
		Title:   "Baseline — condensation vs Mondrian k-anonymity (matched k)",
		Columns: []string{"k", "condensation_accuracy", "mondrian_accuracy", "condensation_mu", "mondrian_mu", "mondrian_ncp"},
	}
	root := rng.New(cfg.Seed)
	train, test, err := ds.TrainTestSplit(cfg.TrainFraction, root.Split())
	if err != nil {
		return nil, err
	}
	// One cell per k, drawing two pre-split streams (evaluate, compare) in
	// the sequential order; the Mondrian side is deterministic.
	srcs := presplit(root, 2*len(cfg.GroupSizes))
	rows := make([][]string, len(cfg.GroupSizes))
	err = cfg.runCells(len(rows), func(i int) error {
		k := cfg.GroupSizes[i]
		// Condensation side.
		condAcc, _, err := anonymizeAndEvaluate(train, test, cfg, k, core.ModeStatic, srcs[2*i])
		if err != nil {
			return err
		}
		condMu, _, err := anonymizeAndCompare(ds, cfg, k, core.ModeStatic, srcs[2*i+1])
		if err != nil {
			return err
		}
		// Mondrian side: partition per class (labels are public in this
		// comparison, mirroring the per-class condensation). Classes are
		// visited in label order so the NCP accumulation order — and with
		// it the reported float — is deterministic.
		genTrain := train.Clone()
		byClass := train.ByClass()
		var ncpWeighted float64
		for label := 0; label < train.NumClasses(); label++ {
			idx := byClass[label]
			if len(idx) == 0 {
				continue
			}
			recs := make([]mat.Vector, len(idx))
			for i, ri := range idx {
				recs[i] = train.X[ri]
			}
			parts, err := kanon.Mondrian(recs, k)
			if err != nil {
				return err
			}
			gen, err := kanon.Generalize(recs, parts)
			if err != nil {
				return err
			}
			for i, ri := range idx {
				genTrain.X[ri] = gen[i]
			}
			ncp, err := kanon.NCP(recs, parts)
			if err != nil {
				return err
			}
			ncpWeighted += ncp * float64(len(idx))
		}
		ncpWeighted /= float64(train.Len())
		mondAcc, err := evaluate(genTrain, test, cfg)
		if err != nil {
			return err
		}
		mondMu, err := muBetween(train, genTrain)
		if err != nil {
			return err
		}
		rows[i] = []string{d(k), f(condAcc), f(mondAcc), f(condMu), f(mondMu), f(ncpWeighted)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AttackStudy measures the nearest-neighbour linkage attack against
// condensed-and-synthesized data as a function of k, alongside the random
// baseline and the in-group re-identification bound 1/k.
func AttackStudy(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Privacy — linkage attack success vs indistinguishability level",
		Columns: []string{"k", "attack_rate", "random_baseline", "in_group_bound"},
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ attack, baseline, bound float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		condenser, err := cfg.condenser(k, core.ModeStatic, r)
		if err != nil {
			return err
		}
		cond, members, err := condenser.StaticWithMembers(ds.X)
		if err != nil {
			return err
		}
		synth, err := cond.SynthesizeGrouped(r)
		if err != nil {
			return err
		}
		origByGroup := make([][]mat.Vector, len(members))
		sizes := make([]int, len(members))
		for gi, member := range members {
			for _, idx := range member {
				origByGroup[gi] = append(origByGroup[gi], ds.X[idx])
			}
			sizes[gi] = len(member)
		}
		rate, err := privacy.LinkageAttack(origByGroup, synth)
		if err != nil {
			return err
		}
		rnd, err := privacy.RandomLinkageRate(sizes)
		if err != nil {
			return err
		}
		groups := cond.Groups()
		reident, err := privacy.ExpectedReidentification(groups)
		if err != nil {
			return err
		}
		cells[i] = cell{attack: rate, baseline: rnd, bound: reident}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var attack, baseline, bound float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			attack += c.attack
			baseline += c.baseline
			bound += c.bound
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(attack/n), f(baseline/n), f(bound/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// knnOnRecords is a tiny helper for tests: 1-NN accuracy of train vs test.
func knnOnRecords(train, test *dataset.Dataset, k int) (float64, error) {
	clf, err := knn.NewClassifier(train, k)
	if err != nil {
		return 0, err
	}
	preds, err := clf.PredictAll(test)
	if err != nil {
		return 0, err
	}
	return metrics.Accuracy(preds, test.Labels)
}
