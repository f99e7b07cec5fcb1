// Package privacy quantifies the privacy side of the condensation
// trade-off: measuring an adversary's re-identification success with a
// nearest-neighbour linkage attack, and computing the entropy-based
// privacy volume of condensed groups in the style of the
// Agrawal–Aggarwal quantification framework. It does not check the
// k-indistinguishability guarantee itself: core.NewRelease enforces that
// at the one boundary condensed state leaves through.
package privacy

import (
	"errors"
	"fmt"
	"math"

	"condensation/internal/mat"
	"condensation/internal/stats"
)

// ExpectedReidentification returns the in-group re-identification
// probability: an adversary who has narrowed a target down to its group
// still faces n(G) indistinguishable candidates, so the per-record success
// probability is 1/n(G); the returned value is the record-weighted mean,
// which for uniform groups of size k equals 1/k.
func ExpectedReidentification(groups []*stats.Group) (float64, error) {
	if len(groups) == 0 {
		return 0, errors.New("privacy: no groups")
	}
	var sum float64
	var records int
	for i, g := range groups {
		if g.N() == 0 {
			return 0, fmt.Errorf("privacy: group %d is empty", i)
		}
		// Each of the n records contributes probability 1/n.
		sum += 1 // n · (1/n)
		records += g.N()
	}
	return sum / float64(records), nil
}

// LinkageAttack simulates a record-linkage adversary who holds the
// original records and the published anonymized records, and links each
// original record to its nearest anonymized record. The attack "succeeds"
// for a record when the linked anonymized record was synthesized from the
// group that actually contained the record — the finest attribution the
// published data supports. originals and synthetic are per-group slices
// with matching group order (as returned by the condensation pipeline).
//
// The returned success rate should be compared against RandomLinkageRate:
// a success rate near the random baseline means the synthesis leaks no
// linkage signal beyond group geometry itself.
func LinkageAttack(originalsByGroup, syntheticByGroup [][]mat.Vector) (successRate float64, err error) {
	if len(originalsByGroup) != len(syntheticByGroup) {
		return 0, fmt.Errorf("privacy: %d original groups vs %d synthetic groups",
			len(originalsByGroup), len(syntheticByGroup))
	}
	if len(originalsByGroup) == 0 {
		return 0, errors.New("privacy: no groups")
	}
	// Flatten synthetic records with their group id.
	type tagged struct {
		x     mat.Vector
		group int
	}
	var all []tagged
	for gi, pts := range syntheticByGroup {
		for _, x := range pts {
			all = append(all, tagged{x: x, group: gi})
		}
	}
	if len(all) == 0 {
		return 0, errors.New("privacy: no synthetic records")
	}
	var successes, total int
	for gi, origs := range originalsByGroup {
		for _, o := range origs {
			best, bestD := -1, math.Inf(1)
			for i := range all {
				if d := o.DistSq(all[i].x); d < bestD {
					best, bestD = i, d
				}
			}
			if all[best].group == gi {
				successes++
			}
			total++
		}
	}
	if total == 0 {
		return 0, errors.New("privacy: no original records")
	}
	return float64(successes) / float64(total), nil
}

// RandomLinkageRate returns the success rate a linkage adversary achieves
// by guessing uniformly at random among the synthetic records: the
// record-weighted expected fraction of synthetic records sharing the
// target's group.
func RandomLinkageRate(groupSizes []int) (float64, error) {
	if len(groupSizes) == 0 {
		return 0, errors.New("privacy: no groups")
	}
	var total int
	for i, n := range groupSizes {
		if n <= 0 {
			return 0, fmt.Errorf("privacy: group %d has size %d", i, n)
		}
		total += n
	}
	var rate float64
	for _, n := range groupSizes {
		p := float64(n) / float64(total) // probability a random guess lands in this group
		rate += float64(n) / float64(total) * p
	}
	return rate, nil
}

// GroupPrivacyVolume returns the entropy-based privacy measure 2^h(G) of a
// condensed group under the paper's locally-uniform synthesis model,
// following the Agrawal–Aggarwal quantification of privacy as
// 2^(differential entropy). The synthesized distribution is a product of
// uniforms of width √(12 λ_j) along the eigenvectors, so
//
//	2^h = Π_j √(12 λ_j)
//
// — the volume of the synthesis support. Larger volume means an adversary
// faces a wider region of indistinguishable possibilities. Degenerate
// groups (any λ_j = 0) have zero volume: along a collapsed direction the
// synthesis is deterministic.
func GroupPrivacyVolume(g *stats.Group) (float64, error) {
	eig, err := g.Eigen()
	if err != nil {
		return 0, err
	}
	vol := 1.0
	for _, lambda := range eig.Values {
		vol *= math.Sqrt(12 * lambda)
	}
	return vol, nil
}

// MeanLogPrivacyVolume returns the record-weighted mean of log2(volume)
// across groups — the aggregate differential-entropy privacy of a
// condensation. Groups with zero volume contribute −Inf, surfaced as
// such rather than hidden.
func MeanLogPrivacyVolume(groups []*stats.Group) (float64, error) {
	if len(groups) == 0 {
		return 0, errors.New("privacy: no groups")
	}
	var sum float64
	var records int
	for _, g := range groups {
		vol, err := GroupPrivacyVolume(g)
		if err != nil {
			return 0, err
		}
		sum += math.Log2(vol) * float64(g.N())
		records += g.N()
	}
	if records == 0 {
		return 0, errors.New("privacy: no records")
	}
	return sum / float64(records), nil
}
