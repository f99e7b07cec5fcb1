// Package audit computes paper-grounded anonymization-quality metrics from
// a condensation — the group-level measures the microaggregation
// literature evaluates anonymizers by (group-size distribution,
// within-group SSE information loss, covariance conditioning) — as a
// live, observe-only monitor. Those measures are functions of the group
// moments alone. The marginal KS distance needs original records, so only
// an offline caller that already holds its input file computes it. It
// does not check k: the server audits a core.Release, which holds no group
// below k by construction.
//
// The auditor only ever reads deep-copied group statistics (for the
// dynamic engine, a snapshot taken under the shards' read locks) and never
// touches the engine's random source, so auditing cannot change
// condensation or synthesis output.
package audit

import (
	"fmt"
	"math"
	"sort"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/metrics"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// Config carries the optional inputs of an audit pass.
type Config struct {
	// Original is a sample of original (pre-anonymization) records. When
	// non-empty, the auditor synthesizes an anonymized sample from the
	// condensation and reports the per-attribute Kolmogorov–Smirnov
	// distance between the two marginals. The distances are a function of
	// raw records, so a live server never sets it.
	Original []mat.Vector
	// SynthSeed seeds the private random source used for the KS synthesis
	// draw. It is independent of the engine's source, so auditing never
	// perturbs the served synthetic stream.
	SynthSeed uint64
	// Leftovers is the number of leftover records that were folded into
	// nearest groups instead of forming their own (from the engine's
	// condense_leftover_records_total counter).
	Leftovers int
}

// SizeBucket is one bar of the group-size histogram.
type SizeBucket struct {
	Size  int `json:"size"`
	Count int `json:"count"`
}

// DecadeBucket is one bar of the condition-number histogram: Count groups
// whose covariance condition number κ falls in [10^Decade, 10^(Decade+1)).
type DecadeBucket struct {
	Decade int `json:"decade"`
	Count  int `json:"count"`
}

// CondNumberStats summarizes the per-group covariance condition numbers
// κ = λ_max/λ_min over the non-degenerate groups.
type CondNumberStats struct {
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// Hist buckets κ by decimal decade; near-singular groups show up as
	// mass in the high decades before they become fully degenerate.
	Hist []DecadeBucket `json:"hist"`
}

// KSReport is the marginal-fidelity block, present only when the audit had
// an original sample to compare against.
type KSReport struct {
	// PerAttribute is the two-sample KS distance per attribute between the
	// original sample's marginal and the synthesized sample's marginal.
	PerAttribute []float64 `json:"per_attribute"`
	Mean         float64   `json:"mean"`
	// OriginalSample and SyntheticSample are the sample sizes compared.
	OriginalSample  int `json:"original_sample"`
	SyntheticSample int `json:"synthetic_sample"`
}

// Report is the result of one audit pass. All fields are derived from the
// retained group moments (and the optional original sample); no raw record
// ever appears in a report.
type Report struct {
	Dim     int `json:"dim"`
	K       int `json:"k"`
	Groups  int `json:"groups"`
	Records int `json:"records"`

	MinGroupSize  int          `json:"min_group_size"`
	MaxGroupSize  int          `json:"max_group_size"`
	MeanGroupSize float64      `json:"mean_group_size"`
	GroupSizeHist []SizeBucket `json:"group_size_hist"`

	// WithinSSE is the within-group sum of squared errors Σ_G Σ_j n(G)·Var_G(j);
	// TotalSSE is the same quantity for all records pooled into one group.
	// Their ratio is the classic microaggregation information-loss score
	// SSE/SST in [0,1]: 0 means groups are internally homogeneous (no
	// information lost to condensation), 1 means grouping explains nothing.
	WithinSSE float64 `json:"within_sse"`
	TotalSSE  float64 `json:"total_sse"`
	SSERatio  float64 `json:"sse_ratio"`

	LeftoverRecords int     `json:"leftover_records"`
	LeftoverRatio   float64 `json:"leftover_ratio"`

	// DegenerateGroups counts groups whose covariance has a non-positive
	// smallest eigenvalue — including the all-identical-records case with a
	// zero covariance matrix — where a condition number is undefined and
	// uniform eigen-synthesis collapses onto a subspace.
	DegenerateGroups int             `json:"degenerate_groups"`
	CondNumber       CondNumberStats `json:"cond_number"`

	KS *KSReport `json:"ks,omitempty"`
}

// Compute runs one audit pass over a condensation. A nil or empty
// condensation yields an empty (but valid) report, so the monitor works
// before any record arrives. The condensation is only read.
func Compute(c *core.Condensation, cfg Config) (*Report, error) {
	r := &Report{LeftoverRecords: cfg.Leftovers}
	if c == nil || c.NumGroups() == 0 {
		return r, nil
	}
	r.Dim = c.Dim()
	r.K = c.K()
	groups := c.Groups()
	r.Groups = len(groups)

	// The group-size distribution.
	sizeCount := make(map[int]int)
	r.MinGroupSize = groups[0].N()
	for _, g := range groups {
		n := g.N()
		r.Records += n
		sizeCount[n]++
		if n < r.MinGroupSize {
			r.MinGroupSize = n
		}
		if n > r.MaxGroupSize {
			r.MaxGroupSize = n
		}
	}
	r.MeanGroupSize = float64(r.Records) / float64(r.Groups)
	sizes := make([]int, 0, len(sizeCount))
	for s := range sizeCount {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		r.GroupSizeHist = append(r.GroupSizeHist, SizeBucket{Size: s, Count: sizeCount[s]})
	}
	if r.Records > 0 {
		r.LeftoverRatio = float64(cfg.Leftovers) / float64(r.Records+cfg.Leftovers)
	}

	// Within-group SSE from the retained moments: n·Var_G(j) per attribute,
	// summed over groups; total SSE from the exact moment-merge of all
	// groups into one.
	pooled := groups[0].Clone()
	for _, g := range groups[1:] {
		if err := pooled.Merge(g); err != nil {
			return nil, fmt.Errorf("audit: pooling groups: %w", err)
		}
	}
	for _, g := range groups {
		sse, err := groupSSE(g)
		if err != nil {
			return nil, err
		}
		r.WithinSSE += sse
	}
	var err error
	r.TotalSSE, err = groupSSE(pooled)
	if err != nil {
		return nil, err
	}
	if r.TotalSSE > 0 {
		r.SSERatio = r.WithinSSE / r.TotalSSE
	}

	// Covariance conditioning. Eigenvalues come back clamped to ≥ 0 and
	// sorted descending; a non-positive smallest eigenvalue means the
	// condition number is undefined — the group is degenerate (the
	// all-identical-records zero-covariance case included), never NaN.
	var kappas []float64
	for _, g := range groups {
		eig, err := g.Eigen()
		if err != nil {
			return nil, fmt.Errorf("audit: group eigendecomposition: %w", err)
		}
		lmax := eig.Values[0]
		lmin := eig.Values[len(eig.Values)-1]
		if lmin <= 0 || lmax <= 0 {
			r.DegenerateGroups++
			continue
		}
		kappas = append(kappas, lmax/lmin)
	}
	if len(kappas) > 0 {
		decades := make(map[int]int)
		r.CondNumber.Min = kappas[0]
		for _, kap := range kappas {
			if kap < r.CondNumber.Min {
				r.CondNumber.Min = kap
			}
			if kap > r.CondNumber.Max {
				r.CondNumber.Max = kap
			}
			r.CondNumber.Mean += kap
			decades[int(math.Floor(math.Log10(kap)))]++
		}
		r.CondNumber.Mean /= float64(len(kappas))
		ds := make([]int, 0, len(decades))
		for d := range decades {
			ds = append(ds, d)
		}
		sort.Ints(ds)
		for _, d := range ds {
			r.CondNumber.Hist = append(r.CondNumber.Hist, DecadeBucket{Decade: d, Count: decades[d]})
		}
	}

	// Marginal fidelity, when an original sample is available. The
	// synthesis draw uses a private source seeded from cfg.SynthSeed — the
	// engine's stream is never advanced.
	if len(cfg.Original) > 0 {
		synth, err := c.Synthesize(rng.New(cfg.SynthSeed))
		if err != nil {
			return nil, fmt.Errorf("audit: synthesizing for KS: %w", err)
		}
		ks := &KSReport{
			PerAttribute:    make([]float64, r.Dim),
			OriginalSample:  len(cfg.Original),
			SyntheticSample: len(synth),
		}
		colA := make([]float64, len(cfg.Original))
		colB := make([]float64, len(synth))
		for j := 0; j < r.Dim; j++ {
			for i, x := range cfg.Original {
				if len(x) != r.Dim {
					return nil, fmt.Errorf("audit: original sample record %d has dimension %d, want %d", i, len(x), r.Dim)
				}
				colA[i] = x[j]
			}
			for i, x := range synth {
				colB[i] = x[j]
			}
			d, err := metrics.KolmogorovSmirnov(colA, colB)
			if err != nil {
				return nil, fmt.Errorf("audit: KS attribute %d: %w", j, err)
			}
			ks.PerAttribute[j] = d
			ks.Mean += d
		}
		ks.Mean /= float64(r.Dim)
		r.KS = ks
	}
	return r, nil
}

// groupSSE returns Σ_j n·Var(j) for one group — the group's total squared
// deviation from its centroid, computed exactly from the retained moments.
func groupSSE(g interface {
	Dim() int
	N() int
	Variance(int) (float64, error)
}) (float64, error) {
	var sse float64
	n := float64(g.N())
	for j := 0; j < g.Dim(); j++ {
		v, err := g.Variance(j)
		if err != nil {
			return 0, fmt.Errorf("audit: variance of attribute %d: %w", j, err)
		}
		sse += n * v
	}
	return sse, nil
}

// Metric names published by Report.Publish.
const (
	MetricRuns             = "condense_audit_runs_total"
	MetricGroups           = "condense_audit_groups"
	MetricRecords          = "condense_audit_records"
	MetricMinGroupSize     = "condense_audit_min_group_size"
	MetricMaxGroupSize     = "condense_audit_max_group_size"
	MetricMeanGroupSize    = "condense_audit_mean_group_size"
	MetricSSERatio         = "condense_audit_sse_ratio"
	MetricLeftoverRatio    = "condense_audit_leftover_ratio"
	MetricDegenerateGroups = "condense_audit_degenerate_groups"
	MetricGroupSize        = "condense_audit_group_size"
	MetricCondNumber       = "condense_audit_cond_number"
)

// groupSizeBuckets spans the size band [k, 2k−1] with a bucket boundary
// just below k and one at 2k, so a group outside the band lands in a
// distinct bucket.
func groupSizeBuckets(k int) []float64 {
	if k < 1 {
		k = 1
	}
	return []float64{
		float64(k) - 0.5,
		float64(k),
		math.Ceil(1.5 * float64(k)),
		float64(2*k - 1),
		float64(2 * k),
	}
}

// condNumberBuckets covers condition numbers by decade up to 1e12, past
// which a group is effectively singular for synthesis purposes.
var condNumberBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e6, 1e8, 1e10, 1e12}

// Publish exports the report into a telemetry registry as the
// condense_audit_* family: gauges carry the latest pass's values,
// and histograms accumulate the group-size and condition-number
// distributions across passes. A nil registry is a no-op.
func (r *Report) Publish(reg *telemetry.Registry) {
	if reg == nil || r == nil {
		return
	}
	reg.Counter(MetricRuns).Inc()
	reg.Gauge(MetricGroups).Set(float64(r.Groups))
	reg.Gauge(MetricRecords).Set(float64(r.Records))
	reg.Gauge(MetricMinGroupSize).Set(float64(r.MinGroupSize))
	reg.Gauge(MetricMaxGroupSize).Set(float64(r.MaxGroupSize))
	reg.Gauge(MetricMeanGroupSize).Set(r.MeanGroupSize)
	reg.Gauge(MetricSSERatio).Set(r.SSERatio)
	reg.Gauge(MetricLeftoverRatio).Set(r.LeftoverRatio)
	reg.Gauge(MetricDegenerateGroups).Set(float64(r.DegenerateGroups))
	sizeHist := reg.Histogram(MetricGroupSize, groupSizeBuckets(r.K))
	for _, b := range r.GroupSizeHist {
		for i := 0; i < b.Count; i++ {
			sizeHist.Observe(float64(b.Size))
		}
	}
	condHist := reg.Histogram(MetricCondNumber, condNumberBuckets)
	for _, b := range r.CondNumber.Hist {
		// One representative observation per group, placed inside its
		// decade; the exact κ values are in the JSON report.
		for i := 0; i < b.Count; i++ {
			condHist.Observe(math.Pow(10, float64(b.Decade)))
		}
	}
}

// PublishShard exports one shard's slice of the report under shard="i"
// labels — the per-shard view the watchdog's imbalance rules and
// dashboards drill into when the merged gauges start moving. Only the
// privacy-critical subset is republished (k-minimum, leftover ratio,
// group/record counts); distribution histograms stay merged-only,
// matching how the engine's series are labeled. Callers gate on
// NumShards ≥ 2 so single-shard deployments keep the exact unlabeled
// series set. A nil registry is a no-op.
func (r *Report) PublishShard(reg *telemetry.Registry, shard int) {
	if reg == nil || r == nil {
		return
	}
	s := fmt.Sprint(shard)
	reg.Gauge(MetricGroups, "shard", s).Set(float64(r.Groups))
	reg.Gauge(MetricRecords, "shard", s).Set(float64(r.Records))
	reg.Gauge(MetricMinGroupSize, "shard", s).Set(float64(r.MinGroupSize))
	reg.Gauge(MetricLeftoverRatio, "shard", s).Set(r.LeftoverRatio)
}
