package experiments

import (
	"fmt"

	"condensation/internal/assoc"
	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/discretize"
	"condensation/internal/rng"
	"condensation/internal/tree"
)

// TreeStudy runs the unmodified CART decision tree on original and on
// condensation-anonymized training data — a second classifier family
// supporting the paper's claim that condensed data needs no
// algorithm-specific redesign. The tree options mirror sensible defaults;
// both sides are scored on untouched test data.
func TreeStudy(ds *dataset.Dataset, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if ds.Task != dataset.Classification {
		return nil, fmt.Errorf("experiments: tree study needs classification data, got %v", ds.Task)
	}
	t := &Table{
		Title:   "Extension — unmodified decision tree on condensed data",
		Columns: []string{"k", "tree_original", "tree_static", "tree_dynamic"},
	}
	root := rng.New(cfg.Seed)
	treeOpts := tree.Options{MaxDepth: 8, MinLeaf: 5}
	reps := cfg.Repetitions
	type cell struct{ orig, static, dynamic float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}
		o, err := treeAccuracy(train, test, treeOpts)
		if err != nil {
			return err
		}
		cells[i].orig = o
		for _, mode := range []core.Mode{core.ModeStatic, core.ModeDynamic} {
			condenser, err := cfg.condenser(k, mode, r.Split())
			if err != nil {
				return err
			}
			anon, _, err := condenser.Anonymize(train)
			if err != nil {
				return err
			}
			acc, err := treeAccuracy(anon, test, treeOpts)
			if err != nil {
				return err
			}
			if mode == core.ModeStatic {
				cells[i].static = acc
			} else {
				cells[i].dynamic = acc
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var orig, static, dynamic float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			orig += c.orig
			static += c.static
			dynamic += c.dynamic
		}
		n := float64(reps)
		if err := t.AddRow(d(k), f(orig/n), f(static/n), f(dynamic/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func treeAccuracy(train, test *dataset.Dataset, opts tree.Options) (float64, error) {
	c, err := tree.Train(train, opts)
	if err != nil {
		return 0, err
	}
	return c.Accuracy(test)
}

// AssociationStudy mines association rules (equi-depth discretization +
// Apriori) from the original data and from its anonymized counterpart and
// reports how well the rule sets agree — the paper cites association-rule
// mining as a problem requiring bespoke redesign under perturbation,
// whereas here the standard pipeline runs unchanged on condensed records.
func AssociationStudy(ds *dataset.Dataset, bins int, minSupport, minConfidence float64, cfg Config) (*Table, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if bins < 2 {
		return nil, fmt.Errorf("experiments: %d bins", bins)
	}
	t := &Table{
		Title: fmt.Sprintf("Extension — association rules on condensed data (bins=%d, sup≥%.2f, conf≥%.2f)",
			bins, minSupport, minConfidence),
		Columns: []string{"k", "rules_original", "rules_anonymized", "jaccard"},
	}
	root := rng.New(cfg.Seed)

	origRules, err := mineRules(ds, bins, minSupport, minConfidence)
	if err != nil {
		return nil, err
	}
	reps := cfg.Repetitions
	type cell struct{ jaccard, anonCount float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err = cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		condenser, err := cfg.condenser(k, core.ModeStatic, srcs[i])
		if err != nil {
			return err
		}
		anon, _, err := condenser.Anonymize(ds)
		if err != nil {
			return err
		}
		anonRules, err := mineRules(anon, bins, minSupport, minConfidence)
		if err != nil {
			return err
		}
		cells[i] = cell{jaccard: assoc.RuleSetJaccard(origRules, anonRules), anonCount: float64(len(anonRules))}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range cfg.GroupSizes {
		var jaccard, anonCount float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			jaccard += c.jaccard
			anonCount += c.anonCount
		}
		n := float64(reps)
		if err := t.AddRow(d(k), d(len(origRules)), f1(anonCount/n), f(jaccard/n)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// mineRules discretizes a data set's records and mines association rules.
// Discretization is refit per data set, matching how an analyst would
// treat the anonymized release as a standalone data set.
func mineRules(ds *dataset.Dataset, bins int, minSupport, minConfidence float64) ([]assoc.Rule, error) {
	dz, err := discretize.EquiDepth(ds.X, bins)
	if err != nil {
		return nil, err
	}
	txs, err := dz.ItemsAll(ds.X)
	if err != nil {
		return nil, err
	}
	freq, err := assoc.Apriori(txs, minSupport)
	if err != nil {
		return nil, err
	}
	return assoc.Rules(freq, minConfidence)
}
