// Package linreg implements ordinary least squares linear regression with
// two training paths, mirroring package nb for the regression case:
//
//   - Train fits on records (the "unmodified algorithm on anonymized
//     data" route of the paper);
//   - FromGroups fits *directly from condensed group statistics* of
//     jointly condensed (features ‖ target) records — the normal
//     equations need exactly Σx, Σxxᵀ, Σxy, Σy and n, all of which are
//     entries of the merged (Fs, Sc, n) triple, so the fit from the H set
//     is bit-for-bit the fit from the raw records.
//
// The intercept is always included. A tiny ridge term can be supplied for
// collinear designs.
package linreg

import (
	"errors"
	"fmt"
	"math"

	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/stats"
)

// Model is a fitted linear model y ≈ intercept + coef·x.
type Model struct {
	// Intercept is the bias term.
	Intercept float64
	// Coef holds one coefficient per feature.
	Coef mat.Vector
}

// Options tunes the fit.
type Options struct {
	// Ridge adds λ·I to the normal-equation matrix (features only, not
	// the intercept), stabilizing collinear designs. 0 = plain OLS.
	Ridge float64
}

// Train fits the model on a regression data set.
func Train(train *dataset.Dataset, opts Options) (*Model, error) {
	if train.Task != dataset.Regression {
		return nil, fmt.Errorf("linreg: needs a regression data set, got %v", train.Task)
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("linreg: training data: %w", err)
	}
	if train.Len() == 0 {
		return nil, errors.New("linreg: empty training data")
	}
	// Build the joint moment group and defer to the statistics path, so
	// the record path and the statistics path are one implementation.
	d := train.Dim()
	g := stats.NewGroup(d + 1)
	joint := make(mat.Vector, d+1)
	for i, x := range train.X {
		copy(joint, x)
		joint[d] = train.Targets[i]
		if err := g.Add(joint); err != nil {
			return nil, err
		}
	}
	return FromGroups([]*stats.Group{g}, opts)
}

// FromGroups fits the model from condensed group statistics of jointly
// condensed records whose final attribute is the regression target (the
// layout core.Condenser.Anonymize uses for regression data). The groups are merged
// exactly and the normal equations are assembled from the merged moments.
func FromGroups(groups []*stats.Group, opts Options) (*Model, error) {
	if len(groups) == 0 {
		return nil, errors.New("linreg: no group statistics")
	}
	if opts.Ridge < 0 {
		return nil, fmt.Errorf("linreg: negative ridge %g", opts.Ridge)
	}
	jointDim := groups[0].Dim()
	if jointDim < 2 {
		return nil, fmt.Errorf("linreg: joint dimension %d needs at least one feature plus the target", jointDim)
	}
	merged := stats.NewGroup(jointDim)
	for i, g := range groups {
		if err := merged.Merge(g); err != nil {
			return nil, fmt.Errorf("linreg: group %d: %w", i, err)
		}
	}
	if merged.N() == 0 {
		return nil, errors.New("linreg: no training mass")
	}
	d := jointDim - 1 // feature count
	fs := merged.FirstOrderSums()
	sc := merged.SecondOrderSums()
	n := float64(merged.N())

	// Augmented normal equations over [x, 1]:
	//   [ Σxxᵀ + λI   Σx ] [coef]      [ Σxy ]
	//   [ Σxᵀ         n  ] [b   ]  =   [ Σy  ]
	a := mat.New(d+1, d+1)
	b := make(mat.Vector, d+1)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			a.Set(i, j, sc.At(i, j))
		}
		a.Set(i, i, a.At(i, i)+opts.Ridge)
		a.Set(i, d, fs[i])
		a.Set(d, i, fs[i])
		b[i] = sc.At(i, d) // Σ x_i·y
	}
	a.Set(d, d, n)
	b[d] = fs[d] // Σy

	sol, err := mat.SolveSPD(a, b)
	if err != nil {
		return nil, fmt.Errorf("linreg: singular design (consider Options.Ridge): %w", err)
	}
	return &Model{Intercept: sol[d], Coef: sol[:d].Clone()}, nil
}

// Predict returns the model's estimate for x.
func (m *Model) Predict(x mat.Vector) (float64, error) {
	if len(x) != len(m.Coef) {
		return 0, fmt.Errorf("linreg: query dimension %d, want %d", len(x), len(m.Coef))
	}
	if !x.IsFinite() {
		return 0, errors.New("linreg: query has non-finite values")
	}
	return m.Intercept + m.Coef.Dot(x), nil
}

// PredictAll estimates every record of a data set, in order.
func (m *Model) PredictAll(test *dataset.Dataset) ([]float64, error) {
	out := make([]float64, test.Len())
	for i, x := range test.X {
		y, err := m.Predict(x)
		if err != nil {
			return nil, fmt.Errorf("linreg: record %d: %w", i, err)
		}
		out[i] = y
	}
	return out, nil
}

// R2 returns the coefficient of determination on a test set (1 = perfect,
// 0 = no better than the mean, negative = worse than the mean).
func (m *Model) R2(test *dataset.Dataset) (float64, error) {
	if test.Task != dataset.Regression {
		return 0, fmt.Errorf("linreg: R2 needs regression data, got %v", test.Task)
	}
	if test.Len() == 0 {
		return 0, errors.New("linreg: empty test data")
	}
	preds, err := m.PredictAll(test)
	if err != nil {
		return 0, err
	}
	var meanY float64
	for _, y := range test.Targets {
		meanY += y
	}
	meanY /= float64(test.Len())
	var ssRes, ssTot float64
	for i, y := range test.Targets {
		r := y - preds[i]
		ssRes += r * r
		t := y - meanY
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return math.Inf(-1), nil
	}
	return 1 - ssRes/ssTot, nil
}
