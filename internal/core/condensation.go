package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// Condensation is the output of condensing a set of records: the set H of
// per-group aggregate statistics. It retains no raw records.
type Condensation struct {
	dim    int
	k      int
	opts   Options
	groups []*stats.Group
	// par bounds the worker goroutines Synthesize fans the groups across.
	// It is a performance knob, not a semantic option: synthesis output is
	// identical for every setting, so it lives outside Options (which is
	// serialized into checkpoints).
	par int
	// met records stage timings during synthesis. Like par it is
	// observe-only and lives outside Options; the zero value is disabled.
	met engineMetrics
	// tr records synthesis trace spans; nil disables tracing. Observe-only
	// like met.
	tr *telemetry.Tracer
	// meta, when set, annotates groups[i] with its stable engine group id
	// and birth (see groupMeta). Observe-only diagnostics metadata: it is
	// not serialized into checkpoints and never influences synthesis.
	// Snapshots taken from a static condensation (or restored from a
	// checkpoint before any engine wraps them) carry none.
	meta []*groupMeta
	// splits is the number of group splits the engine had performed when
	// it cut this snapshot, read under the same shard locks as the group
	// clones; 0 for a condensation no engine cut.
	splits int
}

// newCondensation wraps a set of groups. The groups are owned by the
// Condensation afterwards.
func newCondensation(dim, k int, opts Options, groups []*stats.Group) *Condensation {
	return &Condensation{dim: dim, k: k, opts: opts, groups: groups}
}

// derive wraps groups, a subset of c's groups shared rather than copied,
// and their annotations with c's configuration and observe-only
// attachments.
func (c *Condensation) derive(groups []*stats.Group, meta []*groupMeta) *Condensation {
	d := newCondensation(c.dim, c.k, c.opts, groups)
	d.meta, d.par, d.met, d.tr = meta, c.par, c.met, c.tr
	return d
}

// SetParallelism bounds the worker goroutines Synthesize and
// SynthesizeGrouped fan the groups across; values < 1 (the default) mean
// runtime.NumCPU(). Each group draws from its own pre-derived rng stream,
// so the synthesized records are bit-identical for every setting.
func (c *Condensation) SetParallelism(p int) { c.par = p }

// SetTelemetry attaches a metrics registry: Synthesize and
// SynthesizeGrouped then record per-group eigendecomposition and
// regeneration timings. A nil registry disables recording. Telemetry is
// observe-only; the synthesized records are bit-identical either way.
func (c *Condensation) SetTelemetry(reg *telemetry.Registry) { c.met = newEngineMetrics(reg) }

// SetTracer attaches a span tracer: SynthesizeGrouped then records a
// sampled span per synthesis pass. A nil tracer disables tracing. Like
// SetTelemetry it is observe-only; the synthesized records are
// bit-identical either way.
func (c *Condensation) SetTracer(tr *telemetry.Tracer) { c.tr = tr }

// Dim returns the attribute dimensionality.
func (c *Condensation) Dim() int { return c.dim }

// K returns the indistinguishability level the condensation was built with.
func (c *Condensation) K() int { return c.k }

// Options returns the options the condensation was built with.
func (c *Condensation) Options() Options { return c.opts }

// NumGroups returns the number of condensed groups.
func (c *Condensation) NumGroups() int { return len(c.groups) }

// TotalCount returns the total number of condensed records across groups.
func (c *Condensation) TotalCount() int {
	var n int
	for _, g := range c.groups {
		n += g.N()
	}
	return n
}

// AverageGroupSize returns the mean group size — the x-axis of every figure
// in the paper's evaluation. It returns 0 for an empty condensation.
func (c *Condensation) AverageGroupSize() float64 {
	if len(c.groups) == 0 {
		return 0
	}
	return float64(c.TotalCount()) / float64(len(c.groups))
}

// MinGroupSize returns the smallest group size, which is the effective
// indistinguishability level actually achieved. It returns 0 for an empty
// condensation.
func (c *Condensation) MinGroupSize() int {
	if len(c.groups) == 0 {
		return 0
	}
	min := c.groups[0].N()
	for _, g := range c.groups[1:] {
		if g.N() < min {
			min = g.N()
		}
	}
	return min
}

// Groups returns deep copies of the per-group statistics, so callers cannot
// corrupt the condensation.
func (c *Condensation) Groups() []*stats.Group {
	out := make([]*stats.Group, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.Clone()
	}
	return out
}

// GroupIDs returns a copy of the stable engine group ids annotating the
// groups, aligned with Groups()/Centroids() order, or nil when the
// condensation was not snapshotted from an engine that assigns ids (static
// condensations, freshly restored checkpoints). The ids are observe-only
// lineage metadata — see Dynamic's id scheme.
func (c *Condensation) GroupIDs() []uint64 {
	if c.meta == nil {
		return nil
	}
	ids := make([]uint64, len(c.meta))
	for i, m := range c.meta {
		ids[i] = m.id
	}
	return ids
}

// Centroids returns the centroid of every group.
func (c *Condensation) Centroids() ([]mat.Vector, error) {
	out := make([]mat.Vector, len(c.groups))
	for i, g := range c.groups {
		m, err := g.Mean()
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// Synthesize regenerates an anonymized data set from the group statistics
// (Section 2.1 of the paper). For each group G it draws n(G) points
//
//	x = Y(G) + Σ_j c_j · e_j(G)
//
// where Y(G) is the group centroid, e_j are the eigenvectors of the group
// covariance, and each coordinate c_j is drawn independently with variance
// λ_j — uniformly on [−√(12λ_j)/2, +√(12λ_j)/2] in the paper's default
// mode, or as N(0, λ_j) in the Gaussian ablation mode. Negative
// eigenvalues from floating-point round-off are clamped to zero first.
//
// The i-th synthesized point belongs to the group reported at the same
// index by SynthesizeGrouped; Synthesize concatenates all groups in order.
func (c *Condensation) Synthesize(r *rng.Source) ([]mat.Vector, error) {
	grouped, err := c.SynthesizeGrouped(r)
	if err != nil {
		return nil, err
	}
	var out []mat.Vector
	for _, g := range grouped {
		out = append(out, g...)
	}
	return out, nil
}

// SynthesizeGrouped is Synthesize with the output kept per group.
//
// Each group draws from its own rng stream, derived from r by one Split()
// per group in group order before any worker starts. Group gi therefore
// synthesizes the same points whether the groups run sequentially or fan
// out across SetParallelism workers — the output depends only on r and
// the group statistics, never on scheduling.
func (c *Condensation) SynthesizeGrouped(r *rng.Source) ([][]mat.Vector, error) {
	return c.SynthesizeGroupedExcept(r, nil)
}

// SynthesizeGroupedExcept is SynthesizeGrouped for the groups whose skip
// entry is false; a skipped group's slot in the result is nil. Every
// group's rng stream is still split from r in group order, so each group
// that is synthesized draws exactly the points SynthesizeGrouped gives it.
// A caller holding group gi's points from an earlier call with the same
// seed, for the same group (SharesGroup), can skip it and keep them. A nil
// skip synthesizes every group; otherwise it must have one entry per
// group.
func (c *Condensation) SynthesizeGroupedExcept(r *rng.Source, skip []bool) ([][]mat.Vector, error) {
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	if skip != nil && len(skip) != len(c.groups) {
		return nil, fmt.Errorf("core: skip mask has %d entries for %d groups", len(skip), len(c.groups))
	}
	sp := c.tr.StartChild(nil, "synthesize")
	sp.SetAttrInt("groups", len(c.groups))
	defer sp.End()
	// A skipped group's stream is split off and dropped, so the parent
	// advances past it exactly as it would for a synthesized group; only
	// the synthesized groups' streams are kept, by value, in one slice.
	n := len(c.groups)
	for _, s := range skip {
		if s {
			n--
		}
	}
	todo := make([]int, 0, n)
	srcs := make([]rng.Source, 0, n)
	for gi := range c.groups {
		if skip != nil && skip[gi] {
			r.SplitValue()
			continue
		}
		todo = append(todo, gi)
		srcs = append(srcs, r.SplitValue())
	}
	sp.SetAttrInt("synthesized", len(todo))
	workers := par.Workers(c.par)

	// Phase 1: per-group means and covariance matrices, in parallel.
	means := make([]mat.Vector, len(todo))
	covs := make([]*mat.Matrix, len(todo))
	err := par.Run(len(todo), workers, func(t int) error {
		gi := todo[t]
		mean, err := c.groups[gi].Mean()
		if err != nil {
			return fmt.Errorf("core: group %d: %w", gi, err)
		}
		cov, err := c.groups[gi].Covariance()
		if err != nil {
			return fmt.Errorf("core: group %d: %w", gi, err)
		}
		means[t], covs[t] = mean, cov
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: one batched eigensolve pass over every covariance, with the
	// Jacobi workspaces amortized per worker. The stage=eigen timer samples
	// one solve in eigenSampleEvery (like the routing timer) — observe-only,
	// so output is bit-identical with telemetry on or off.
	var observe func(seconds float64)
	if c.met.enabled {
		observe = c.met.eigen.Observe
	}
	eigs, err := mat.SymEigenBatchObserved(covs, workers, eigenSampleEvery, observe)
	if err != nil {
		return nil, fmt.Errorf("core: synthesize: %w", err)
	}

	// Phase 3: per-group point regeneration, each group drawing from its
	// own pre-split rng stream exactly as before.
	out := make([][]mat.Vector, len(c.groups))
	err = par.Run(len(todo), workers, func(t int) error {
		gi := todo[t]
		pts, err := synthesizeGroup(c.groups[gi], means[t], eigs[t].ClampPSD(), c.opts.Synthesis, &srcs[t], c.met)
		if err != nil {
			return fmt.Errorf("core: group %d: %w", gi, err)
		}
		out[gi] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SharesGroup reports whether group i of c is the very group object prev
// held at index i: the two snapshots were taken from the same engine and
// slot i did not change in between, so synthesizing it under the same
// seed gives the same points. Snapshots of a Dynamic share the clones of
// unchanged slots; a group that moved to another index (a split in an
// earlier shard shifts every later shard's groups) is not shared, since
// its rng stream index changed with it.
func (c *Condensation) SharesGroup(prev *Condensation, i int) bool {
	return prev != nil && i >= 0 && i < len(c.groups) && i < len(prev.groups) && c.groups[i] == prev.groups[i]
}

// eigenSampleEvery is the sampling stride of the stage=eigen timer during
// batched synthesis: one solve in 64 is wall-timed, so a batch of
// thousands of sub-microsecond eigensolves pays a handful of clock reads
// instead of two per solve, while the histogram still fills.
const eigenSampleEvery = 64

// synthesizeGroup draws n(G) anonymized points from one group's
// pre-decomposed statistics: mean is the group centroid and eig its
// PSD-clamped covariance eigendecomposition. All points of the group are
// carved from one flat slab, and each coordinate is produced as
// mean[row] + ⟨eigenvector-row, coord⟩ — the same single-accumulator
// in-order arithmetic as the mean.Clone()/AddScaled/MulVec chain it
// replaced (adding a zero-initialized clone's entry and scaling by 1 are
// exact), so the synthesized records are bit-identical.
func synthesizeGroup(g *stats.Group, mean mat.Vector, eig mat.Eigen, mode Synthesis, r *rng.Source, met engineMetrics) ([]mat.Vector, error) {
	var t0 time.Time
	if met.enabled {
		t0 = time.Now()
	}
	d := g.Dim()
	// Pre-compute the per-axis half-ranges (uniform) or standard
	// deviations (Gaussian).
	spread := make(mat.Vector, d)
	for j, lambda := range eig.Values {
		switch mode {
		case SynthesisUniform:
			spread[j] = math.Sqrt(12*lambda) / 2 // half of a = √(12λ)
		case SynthesisGaussian:
			spread[j] = math.Sqrt(lambda)
		default:
			return nil, fmt.Errorf("core: unknown synthesis mode %d", int(mode))
		}
	}
	n := g.N()
	pts := make([]mat.Vector, n)
	slab := make([]float64, n*d)
	coord := make(mat.Vector, d)
	vecRows := make([]mat.Vector, d)
	for row := range vecRows {
		vecRows[row] = eig.Vectors.Row(row)
	}
	for i := range pts {
		for j := range coord {
			switch mode {
			case SynthesisUniform:
				coord[j] = r.Uniform(-spread[j], spread[j])
			case SynthesisGaussian:
				coord[j] = spread[j] * r.Norm()
			}
		}
		// x = mean + P·coord (coord holds the eigenbasis coordinates).
		x := mat.Vector(slab[i*d : (i+1)*d])
		for row, vr := range vecRows {
			x[row] = mean[row] + vr.Dot(coord)
		}
		pts[i] = x
	}
	if met.enabled {
		met.synth.ObserveSince(t0)
	}
	return pts, nil
}

// Merge combines condensations produced independently (for example by
// separate collection servers over disjoint record partitions) into one:
// the union of their condensed groups. Every input must share the
// dimensionality; the result takes the *smallest* k among the inputs,
// since that is the weakest indistinguishability level any merged group
// is guaranteed to meet, and the options of the first input.
func Merge(conds ...*Condensation) (*Condensation, error) {
	if len(conds) == 0 {
		return nil, errors.New("core: nothing to merge")
	}
	dim := conds[0].dim
	k := conds[0].k
	var groups []*stats.Group
	for i, c := range conds {
		if c == nil {
			return nil, fmt.Errorf("core: merge input %d is nil", i)
		}
		if c.dim != dim {
			return nil, fmt.Errorf("core: merge input %d has dimension %d, want %d", i, c.dim, dim)
		}
		if c.k < k {
			k = c.k
		}
		groups = append(groups, c.Groups()...)
	}
	merged := newCondensation(dim, k, conds[0].opts, groups)
	merged.par = conds[0].par
	merged.met = conds[0].met
	return merged, nil
}
