package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// randomRecords draws n records in d dimensions with mixed scales.
func randomRecords(r *rng.Source, n, d int) []mat.Vector {
	out := make([]mat.Vector, n)
	for i := range out {
		x := make(mat.Vector, d)
		for j := range x {
			switch j % 3 {
			case 0:
				x[j] = r.Norm()
			case 1:
				x[j] = r.Uniform(-10, 10)
			default:
				x[j] = r.Exp(0.5)
			}
		}
		out[i] = x
	}
	return out
}

// Property: static condensation always covers every record exactly once
// and meets the indistinguishability level whenever the data allows it.
func TestStaticInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(120)
		d := 1 + r.IntN(5)
		k := 1 + r.IntN(15)
		recs := randomRecords(r, n, d)
		cond, err := condense(recs, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		if cond.TotalCount() != n {
			return false
		}
		wantMin := k
		if n < k {
			wantMin = n // a single undersized group is the only option
		}
		return cond.MinGroupSize() >= wantMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: dynamic maintenance never lets a group reach 2k and never
// loses a record, for arbitrary streams.
func TestDynamicInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := 1 + r.IntN(4)
		k := 1 + r.IntN(10)
		streamLen := 1 + r.IntN(200)
		dyn, err := emptyDynamic(d, k, r.Split())
		if err != nil {
			return false
		}
		for i := 0; i < streamLen; i++ {
			x := randomRecords(r, 1, d)[0]
			if err := dyn.Add(x); err != nil {
				return false
			}
		}
		snap := dyn.Condensation()
		if snap.TotalCount() != streamLen {
			return false
		}
		for _, g := range snap.Groups() {
			if g.N() >= 2*k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: under arbitrary interleavings of Add and AddBatch — random
// batch sizes — a dynamic condenser bootstrapped from a static condensation keeps every
// group inside the paper's steady-state band k ≤ n(G) ≤ 2k−1 and never
// loses a record. (Splits interleave implicitly: any group reaching 2k is
// split on the spot, which is what makes the upper bound tight.)
func TestDynamicInterleavingInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := 1 + r.IntN(4)
		k := 2 + r.IntN(8)
		base := randomRecords(r, k+r.IntN(4*k), d)
		cond, err := condense(base, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		dyn, err := dynamicFrom(cond, r.Split())
		if err != nil {
			return false
		}
		total := len(base)
		for op := 0; op < 12; op++ {
			if r.Bool(0.5) {
				x := randomRecords(r, 1, d)[0]
				if err := dyn.Add(x); err != nil {
					return false
				}
				total++
			} else {
				batch := randomRecords(r, r.IntN(60), d)
				if err := dyn.AddBatch(batch); err != nil {
					return false
				}
				total += len(batch)
			}
		}
		if dyn.TotalCount() != total {
			return false
		}
		for _, g := range dyn.Condensation().Groups() {
			if g.N() < k || g.N() > 2*k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: synthesized data preserves each group's mean within the
// standard error implied by the group's own spread, and the global moment
// sums are finite and of the right cardinality.
func TestSynthesisGroupMeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 30 + r.IntN(80)
		d := 1 + r.IntN(4)
		k := 5 + r.IntN(10)
		recs := randomRecords(r, n, d)
		cond, err := condense(recs, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		grouped, err := cond.SynthesizeGrouped(r.Split())
		if err != nil {
			return false
		}
		for gi, g := range cond.Groups() {
			mean, err := g.Mean()
			if err != nil {
				return false
			}
			eig, err := g.Eigen()
			if err != nil {
				return false
			}
			synthMean := mat.NewVector(g.Dim())
			for _, x := range grouped[gi] {
				synthMean.AddScaled(1, x)
			}
			synthMean = synthMean.Scale(1 / float64(len(grouped[gi])))
			// The synthesized mean deviates by at most a few standard
			// errors; use a generous 6·σ/√n bound along the total spread.
			spread := math.Sqrt(eig.Values.Sum())
			bound := 6*spread/math.Sqrt(float64(g.N())) + 1e-9
			if synthMean.Dist(mean) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: splitting any 2k group preserves the total first-order sums
// exactly (mass balance) regardless of geometry.
func TestSplitMassBalanceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := 1 + r.IntN(5)
		k := 1 + r.IntN(12)
		g := stats.NewGroup(d)
		for _, x := range randomRecords(r, 2*k, d) {
			if err := g.Add(x); err != nil {
				return false
			}
		}
		m1, m2, err := SplitGroup(g, k, SplitPrincipal, nil)
		if err != nil {
			return false
		}
		total := m1.FirstOrderSums().Add(m2.FirstOrderSums())
		want := g.FirstOrderSums()
		scale := 1 + want.Norm()
		return total.Sub(want).Norm() <= 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a checkpoint round trip is the identity on group structure for
// arbitrary condensations.
func TestPersistRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(60)
		d := 1 + r.IntN(4)
		k := 1 + r.IntN(8)
		recs := randomRecords(r, n, d)
		cond, err := condense(recs, k, r.Split(), Options{})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := cond.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadCondensation(&buf)
		if err != nil {
			return false
		}
		if got.NumGroups() != cond.NumGroups() || got.TotalCount() != cond.TotalCount() {
			return false
		}
		og, gg := cond.Groups(), got.Groups()
		for i := range og {
			if !og[i].FirstOrderSums().Equal(gg[i].FirstOrderSums(), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
