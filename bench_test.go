// Package condensation's root benchmark suite regenerates every table and
// figure of the paper's evaluation as Go benchmarks: one Benchmark per
// figure panel (5a–8b), one per ablation and baseline study from
// DESIGN.md, and micro-benchmarks for the core operations. Each figure
// bench logs the full table (visible with `go test -bench . -v`) and
// reports the headline series values through b.ReportMetric so regressions
// in *result quality*, not just speed, show up in benchmark diffs.
package condensation

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/experiments"
	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// benchConfig is the shared figure configuration: the paper's x-axis range
// at reduced repetition count to keep bench runtime reasonable.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:        7,
		GroupSizes:  []int{2, 5, 10, 25, 50},
		Repetitions: 1,
	}
}

// runFigureBench regenerates one panel per iteration and reports the
// series at the largest group size.
func runFigureBench(b *testing.B, id string) {
	b.Helper()
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.RunFigure(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

// logTable renders a table into the benchmark log.
func logTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
}

// reportLastRow publishes the numeric cells of the final (largest-k) row
// as benchmark metrics named after the columns.
func reportLastRow(b *testing.B, t *experiments.Table) {
	b.Helper()
	if len(t.Rows) == 0 {
		return
	}
	last := t.Rows[len(t.Rows)-1]
	for i, col := range t.Columns {
		v, err := strconv.ParseFloat(last[i], 64)
		if err != nil {
			continue // non-numeric cell
		}
		b.ReportMetric(v, col)
	}
}

// Figure 5: Ionosphere.

func BenchmarkFig5aIonosphereAccuracy(b *testing.B) { runFigureBench(b, "5a") }
func BenchmarkFig5bIonosphereCompat(b *testing.B)   { runFigureBench(b, "5b") }

// Figure 6: Ecoli.

func BenchmarkFig6aEcoliAccuracy(b *testing.B) { runFigureBench(b, "6a") }
func BenchmarkFig6bEcoliCompat(b *testing.B)   { runFigureBench(b, "6b") }

// Figure 7: Pima Indian.

func BenchmarkFig7aPimaAccuracy(b *testing.B) { runFigureBench(b, "7a") }
func BenchmarkFig7bPimaCompat(b *testing.B)   { runFigureBench(b, "7b") }

// Figure 8: Abalone.

func BenchmarkFig8aAbaloneAccuracy(b *testing.B) { runFigureBench(b, "8a") }
func BenchmarkFig8bAbaloneCompat(b *testing.B)   { runFigureBench(b, "8b") }

// Ablations (DESIGN.md §3): design choices the paper motivates.

func BenchmarkAblationSplitAxis(b *testing.B) {
	ds := datagen.Pima(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.SplitAxisAblation(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkAblationSynthesisDistribution(b *testing.B) {
	ds := datagen.Pima(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.SynthesisAblation(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkAblationLeftover(b *testing.B) {
	ds := datagen.Ecoli(7)
	cfg := benchConfig()
	cfg.GroupSizes = []int{7, 13, 23} // sizes that leave leftovers
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.LeftoverAblation(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

// Baselines: the approaches the paper positions itself against.

func BenchmarkBaselinePerturbation(b *testing.B) {
	ds := datagen.Pima(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.PerturbationComparison(ds, []float64{0.25, 0.5, 1, 2}, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
}

func BenchmarkBaselineKAnonymity(b *testing.B) {
	ds := datagen.Pima(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.KAnonymityComparison(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkPrivacyAttack(b *testing.B) {
	ds := datagen.Ecoli(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.AttackStudy(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkClusteringUtility(b *testing.B) {
	ds := datagen.Ecoli(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.ClusteringStudy(ds, 4, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

// Micro-benchmarks: throughput of the core operations.

func BenchmarkCoreStaticCondense(b *testing.B) {
	ds := datagen.Pima(7)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := condense(ds.X, 25, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreStaticSearch compares the static neighbour searches behind
// the Condenser facade on identical inputs; the sub-benchmark names make
// the scan-sort → auto (quickselect) speedup visible in benchstat diffs.
func BenchmarkCoreStaticSearch(b *testing.B) {
	ds := datagen.Pima(7)
	for _, search := range []core.NeighborSearch{core.SearchScanSort, core.SearchAuto} {
		b.Run(search.String(), func(b *testing.B) {
			c, err := core.NewCondenser(25, core.WithSeed(1), core.WithNeighborSearch(search))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Static(ds.X); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoreDynamicAdd(b *testing.B) {
	ds := datagen.Abalone(7)
	joint := make([]mat.Vector, len(ds.X))
	for i, x := range ds.X {
		joint[i] = x
	}
	base, err := condense(joint[:500], 25, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	dyn, err := core.NewDynamic(base, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dyn.Add(joint[500+i%(len(joint)-500)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreSynthesize(b *testing.B) {
	ds := datagen.Ionosphere(7)
	cond, err := condense(ds.X, 25, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cond.Synthesize(r); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts are the sub-benchmark worker counts of the parallel
// micro-benchmarks: sequential, two workers, and the machine's default.
func benchWorkerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkCoreSynthesizeParallel sweeps the synthesis worker count on a
// large condensation; the output is bit-identical across sub-benchmarks
// (TestSynthesizeParallelEquivalence), only the wall clock moves.
func BenchmarkCoreSynthesizeParallel(b *testing.B) {
	ds := datagen.Abalone(7)
	cond, err := condense(ds.X, 25, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			cond.SetParallelism(w)
			r := rng.New(5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cond.Synthesize(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNPredictAll sweeps the classifier's test-sweep worker count.
// ReportAllocs makes the scratch-counter fix visible: allocations stay
// flat per sweep instead of growing with the number of predictions.
func BenchmarkKNNPredictAll(b *testing.B) {
	ds := datagen.Pima(7)
	train, test, err := ds.TrainTestSplit(0.75, rng.New(8))
	if err != nil {
		b.Fatal(err)
	}
	clf, err := knn.NewClassifier(train, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range benchWorkerCounts() {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			clf.SetParallelism(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clf.PredictAll(test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentsAccuracyCurveParallel sweeps the experiment-cell
// worker count on the paper's Fig 7a workload — the headline number for
// the deterministic parallel evaluation engine.
func BenchmarkExperimentsAccuracyCurveParallel(b *testing.B) {
	ds := datagen.Pima(7)
	for _, w := range benchWorkerCounts() {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Parallelism = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.AccuracyCurve(ds, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoreSplitGroup(b *testing.B) {
	r := rng.New(6)
	g := stats.NewGroup(34)
	x := make(mat.Vector, 34)
	for i := 0; i < 50; i++ {
		for j := range x {
			x[j] = r.Norm()
		}
		if err := g.Add(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SplitGroup(g, 25, core.SplitPrincipal, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionDecisionTree(b *testing.B) {
	ds := datagen.Pima(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.TreeStudy(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkExtensionAssociationRules(b *testing.B) {
	ds := datagen.Ecoli(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.AssociationStudy(ds, 3, 0.2, 0.6, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkExtensionNaiveBayes(b *testing.B) {
	ds := datagen.Pima(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.NaiveBayesStudy(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

// BenchmarkScalingCondense isolates the condensation step at the scaling
// study's largest data-set size (n=2000; the figure-level
// BenchmarkScalingDatasetSize is dominated by the k-NN evaluation, which
// the neighbour-search backends do not touch).
func BenchmarkScalingCondense(b *testing.B) {
	ds := datagen.TwoGaussians(7, 1000, 6, 4)
	for _, search := range []core.NeighborSearch{core.SearchScanSort, core.SearchAuto} {
		b.Run(search.String(), func(b *testing.B) {
			c, err := core.NewCondenser(20, core.WithSeed(1), core.WithNeighborSearch(search))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Static(ds.X); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScalingDatasetSize(b *testing.B) {
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.ScalingStudy(20, []int{100, 500, 2000}, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkFidelityMarginalKS(b *testing.B) {
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.FidelityStudy("ionosphere", benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}

func BenchmarkExtensionLinearRegression(b *testing.B) {
	ds := datagen.Abalone(7)
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		table, err = experiments.LinRegStudy(ds, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, table)
	reportLastRow(b, table)
}
