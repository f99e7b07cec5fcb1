package condensation

import (
	"bytes"
	"math"
	"testing"

	"condensation/internal/assoc"
	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/dataset"
	"condensation/internal/discretize"
	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/metrics"
	"condensation/internal/rng"
	"condensation/internal/stream"
	"condensation/internal/tree"
)

// condense runs Condenser.Static on an injected rng source.
func condense(records []mat.Vector, k int, r *rng.Source) (*core.Condensation, error) {
	c, err := core.NewCondenser(k, core.WithRandomSource(r))
	if err != nil {
		return nil, err
	}
	return c.Static(records)
}

// anonymize runs Condenser.Anonymize on an injected rng source.
func anonymize(ds *dataset.Dataset, k int, r *rng.Source) (*dataset.Dataset, *core.Report, error) {
	c, err := core.NewCondenser(k, core.WithRandomSource(r))
	if err != nil {
		return nil, nil, err
	}
	return c.Anonymize(ds)
}

// TestPipelineClassification exercises the full paper pipeline end to end
// on every classification data set: generate → split → anonymize → train
// unmodified classifier → score, checking the headline claims.
func TestPipelineClassification(t *testing.T) {
	for _, name := range []string{"ionosphere", "ecoli", "pima"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := datagen.ByName(name, 99)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(100)
			train, test, err := ds.TrainTestSplit(0.75, r.Split())
			if err != nil {
				t.Fatal(err)
			}

			clf, err := knn.NewClassifier(train, 1)
			if err != nil {
				t.Fatal(err)
			}
			preds, err := clf.PredictAll(test)
			if err != nil {
				t.Fatal(err)
			}
			origAcc, err := metrics.Accuracy(preds, test.Labels)
			if err != nil {
				t.Fatal(err)
			}

			anon, report, err := anonymize(train, 10, r.Split())
			if err != nil {
				t.Fatal(err)
			}
			if anon.Len() != train.Len() {
				t.Fatalf("anonymized %d records, want %d", anon.Len(), train.Len())
			}
			aclf, err := knn.NewClassifier(anon, 1)
			if err != nil {
				t.Fatal(err)
			}
			apreds, err := aclf.PredictAll(test)
			if err != nil {
				t.Fatal(err)
			}
			anonAcc, err := metrics.Accuracy(apreds, test.Labels)
			if err != nil {
				t.Fatal(err)
			}

			// The paper's claim: anonymized accuracy is comparable. Allow
			// a modest absolute drop.
			if anonAcc < origAcc-0.1 {
				t.Errorf("anonymized accuracy %.4f vs original %.4f: degradation exceeds 0.1", anonAcc, origAcc)
			}

			// Covariance structure survives.
			mu, err := metrics.CovarianceCompatibility(train.X, anon.X)
			if err != nil {
				t.Fatal(err)
			}
			if mu < 0.95 {
				t.Errorf("µ = %.4f, want ≥ 0.95", mu)
			}

			// Groups respect k except for classes smaller than k.
			counts := train.ClassCounts()
			for _, cr := range report.Classes {
				if counts[cr.Label] >= 10 && cr.MinGroupSize < 10 {
					t.Errorf("class %d min group %d < k", cr.Label, cr.MinGroupSize)
				}
			}
		})
	}
}

// TestPipelineRegression is the Abalone counterpart: within-one-year
// accuracy on anonymized data stays within range of the original.
func TestPipelineRegression(t *testing.T) {
	ds, err := datagen.ByName("abalone", 101)
	if err != nil {
		t.Fatal(err)
	}
	// A subset keeps the test fast; the full set runs in the bench suite.
	idx := make([]int, 1200)
	for i := range idx {
		idx[i] = i
	}
	sub, err := ds.Subset(idx)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(102)
	train, test, err := sub.TrainTestSplit(0.75, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	score := func(tr *dataset.Dataset) float64 {
		reg, err := knn.NewRegressor(tr, 1)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := reg.PredictAll(test)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := metrics.WithinTolerance(preds, test.Targets, 1)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	origAcc := score(train)
	anon, _, err := anonymize(train, 10, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	anonAcc := score(anon)
	if anonAcc < origAcc-0.12 {
		t.Errorf("anonymized within-one-year %.4f vs original %.4f", anonAcc, origAcc)
	}
}

// TestPipelineDynamicStream runs the stream deployment end to end: static
// seed, stream the rest, audit, synthesize, classify.
func TestPipelineDynamicStream(t *testing.T) {
	ds := datagen.TwoGaussians(103, 300, 4, 8)
	r := rng.New(104)
	const k = 8

	// Per-class streams, as the paper's classification setting implies.
	byClass := ds.ByClass()
	anon := &dataset.Dataset{Task: dataset.Classification, Attrs: ds.Attrs, ClassNames: ds.ClassNames}
	for label, idx := range byClass {
		recs := make([]int, len(idx))
		copy(recs, idx)
		sub, err := ds.Subset(recs)
		if err != nil {
			t.Fatal(err)
		}
		base, err := condense(sub.X[:50], k, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCondenser(k, core.WithRandomSource(r.Split()))
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := c.DynamicFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		driver, err := stream.NewDriver(dyn)
		if err != nil {
			t.Fatal(err)
		}
		if err := driver.Feed(stream.Shuffled(sub.X[50:], r.Split())); err != nil {
			t.Fatal(err)
		}
		cond := driver.Condensation()
		checkSizeBand(t, cond, k)
		synth, err := cond.Synthesize(r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range synth {
			if err := anon.Append(x, label, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if anon.Len() != ds.Len() {
		t.Fatalf("streamed anonymization produced %d records, want %d", anon.Len(), ds.Len())
	}
	clf, err := knn.NewClassifier(anon, 1)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := clf.PredictAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(preds, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("stream-anonymized accuracy %.4f on separable data", acc)
	}
}

// TestPipelineMining runs the discretize→Apriori pipeline on original and
// anonymized Ecoli and demands substantial rule agreement.
func TestPipelineMining(t *testing.T) {
	ds := datagen.Ecoli(105)
	r := rng.New(106)
	mine := func(records *dataset.Dataset) []assoc.Rule {
		dz, err := discretize.EquiDepth(records.X, 3)
		if err != nil {
			t.Fatal(err)
		}
		txs, err := dz.ItemsAll(records.X)
		if err != nil {
			t.Fatal(err)
		}
		freq, err := assoc.Apriori(txs, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		rules, err := assoc.Rules(freq, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		return rules
	}
	origRules := mine(ds)
	if len(origRules) == 0 {
		t.Fatal("no rules mined from original data; mining study would be vacuous")
	}
	anon, _, err := anonymize(ds, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	anonRules := mine(anon)
	if j := assoc.RuleSetJaccard(origRules, anonRules); j < 0.4 {
		t.Errorf("rule-set Jaccard %.3f, want ≥ 0.4", j)
	}
}

// TestPipelineTree runs the unmodified decision tree on anonymized data.
func TestPipelineTree(t *testing.T) {
	ds := datagen.Pima(107)
	r := rng.New(108)
	train, test, err := ds.TrainTestSplit(0.75, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	fit := func(tr *dataset.Dataset) float64 {
		c, err := tree.Train(tr, tree.Options{MaxDepth: 6, MinLeaf: 10})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := c.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	origAcc := fit(train)
	anon, _, err := anonymize(train, 15, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	anonAcc := fit(anon)
	if anonAcc < origAcc-0.1 {
		t.Errorf("tree on anonymized data %.4f vs original %.4f", anonAcc, origAcc)
	}
}

// TestPipelineCheckpoint round-trips a condensation through the binary
// format and verifies synthesized output equivalence.
func TestPipelineCheckpoint(t *testing.T) {
	ds := datagen.Ecoli(109)
	cond, err := condense(ds.X, 12, rng.New(110))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadCondensation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cond.Synthesize(rng.New(111))
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Synthesize(rng.New(111))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			t.Fatal("synthesis differs after checkpoint round trip")
		}
	}
}

// TestMomentPreservationEndToEnd checks the quantitative heart of the
// method: per-group means are exact, and global covariance error shrinks
// as group sizes shrink.
func TestMomentPreservationEndToEnd(t *testing.T) {
	ds := datagen.Pima(112)
	var prevErr float64 = -1
	for _, k := range []int{100, 25, 5} {
		cond, err := condense(ds.X, k, rng.New(113))
		if err != nil {
			t.Fatal(err)
		}
		synth, err := cond.Synthesize(rng.New(114))
		if err != nil {
			t.Fatal(err)
		}
		mu, err := metrics.CovarianceCompatibility(ds.X, synth)
		if err != nil {
			t.Fatal(err)
		}
		errNow := 1 - mu
		if prevErr >= 0 && errNow > prevErr+0.02 {
			t.Errorf("k=%d: covariance error %.4f grew vs larger k (%.4f)", k, errNow, prevErr)
		}
		prevErr = errNow
		if math.IsNaN(mu) {
			t.Fatal("µ is NaN")
		}
	}
}

// TestPipelineShardedStream runs the sharded deployment end to end: a
// 4-shard engine fed through the generic stream driver, the merged
// condensation audited for the k-invariant, reproduced bit for bit on a
// second engine, then synthesized and classified.
func TestPipelineShardedStream(t *testing.T) {
	ds := datagen.TwoGaussians(115, 400, 4, 8)
	const k, shards = 8, 4

	run := func(t *testing.T) (*core.Dynamic, *core.Condensation) {
		t.Helper()
		condenser, err := core.NewCondenser(k, core.WithSeed(116))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := condenser.Sharded(len(ds.Attrs), shards)
		if err != nil {
			t.Fatal(err)
		}
		driver, err := stream.NewDriver(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := driver.Feed(stream.Shuffled(ds.X, rng.New(117))); err != nil {
			t.Fatal(err)
		}
		if driver.Seen() != ds.Len() {
			t.Fatalf("driver saw %d records, want %d", driver.Seen(), ds.Len())
		}
		return eng, driver.Condensation()
	}

	eng, cond := run(t)
	checkSizeBand(t, cond, k)
	for i := 0; i < eng.NumShards(); i++ {
		checkSizeBand(t, eng.Shard(i), k)
	}

	_, cond2 := run(t)
	var a, b bytes.Buffer
	if _, err := cond.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := cond2.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sharded stream pipeline is not reproducible")
	}

	synth, err := cond.Synthesize(rng.New(118))
	if err != nil {
		t.Fatal(err)
	}
	if len(synth) != ds.Len() {
		t.Fatalf("synthesized %d records, want %d", len(synth), ds.Len())
	}
	mu, err := metrics.CovarianceCompatibility(ds.X, synth)
	if err != nil {
		t.Fatal(err)
	}
	if mu < 0.95 {
		t.Errorf("µ = %.4f after sharded streaming, want ≥ 0.95", mu)
	}
}

// checkSizeBand fails the test unless every group of cond holds between k
// and 2k−1 records: its Release withholds nothing, and the largest
// released group is below the split threshold.
func checkSizeBand(t *testing.T, cond *core.Condensation, k int) {
	t.Helper()
	rel := core.NewRelease(0, cond, 1)
	if groups, records := rel.Withheld(); groups > 0 {
		t.Fatalf("%d groups below k = %d hold %d records", groups, k, records)
	}
	for _, n := range rel.Sizes() {
		if n >= 2*k {
			t.Fatalf("a group of %d records (≥ 2k = %d) survived", n, 2*k)
		}
	}
}
