package server

import (
	"fmt"
	"math"
	"strconv"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
)

// GET /v1/snapshot answers a cache miss by synthesizing every record and
// encoding it, and the encoding dominates, so the body is written here by
// a fixed-shape encoder instead of encoding/json. The body is exactly
//
//	{"records":[rows],"groups":G,"k":K}\n
//	rows = empty | row *( , row )
//	row  = [ ] | [ number *( , number ) ]
//
// byte for byte what json.NewEncoder(w).Encode writes for the struct
// {Records [][]float64 `json:"records"`; Groups int `json:"groups"`;
// K int `json:"k"`} holding the synthesized records, which are never nil
// (snapshotResponse, the tests' reference). A number follows
// encoding/json's float64 rule: the shortest round-trip digits (precision
// -1, bitSize 64), in 'f' form unless 0 < |x| < 1e-6 or |x| ≥ 1e21, where
// the 'e' form is used with a two-digit negative exponent shortened
// (e-07 → e-7). NaN and ±Inf have no JSON form and fail the encode, as
// encoding/json's UnsupportedValueError does.
//
// strconv.AppendFloat is most of the cost and already the floor for one
// goroutine, so the encoder splits the groups into contiguous ranges of
// about equal record count and formats one range per worker into its own
// scratch slice. The parts are then copied, behind the header and ahead
// of the trailer, into one exactly sized body: the release keeps that
// body, so it must carry no spare capacity.
//
// After a write, most groups are unchanged, and so are their rows: a
// group's synthesized records depend only on its moments and its rng
// stream, the gi-th split of the seed. A rebuild therefore takes the rows
// of every group the new condensation shares with the previous build at
// the same seed (core.Condensation.SharesGroup: the same group object at
// the same index) straight from the previous body, and synthesizes and
// encodes only the rest. The body is byte for byte the from-scratch
// encoding. When the release withholds nothing, its condensation is the
// engine's cut itself, so group identity carries over exactly.

// snapshotValueMax bounds the bytes one float64 takes in the encoding:
// "-0.0000012345678901234567" ('f' form just above 1e-6) is the longest.
const snapshotValueMax = 25

// buildSnapshot synthesizes rel's groups under seed and encodes the body,
// reusing base's rows for every group rel shares with base's release. A
// nil base builds from scratch.
func buildSnapshot(rel *core.Release, seed uint64, base *snapshotEntry) (*snapshotEntry, error) {
	cond := rel.Condensation()
	var reuse []bool
	if base != nil {
		reuse = make([]bool, cond.NumGroups())
		prev := base.rel.Condensation()
		for gi := range reuse {
			reuse[gi] = cond.SharesGroup(prev, gi)
		}
	}
	grouped, err := cond.SynthesizeGroupedExcept(rng.New(seed), reuse)
	if err != nil {
		return nil, err
	}
	data, offs, err := encodeSnapshotFrom(grouped, reuse, base, cond.NumGroups(), cond.K(), par.Workers(0))
	if err != nil {
		return nil, err
	}
	return &snapshotEntry{rel: rel, body: newRespBody(data), offs: offs}, nil
}

// encodeSnapshot renders the /v1/snapshot body for grouped synthesized
// records on up to workers goroutines. The result is identical for every
// worker count.
func encodeSnapshot(grouped [][]mat.Vector, groups, k, workers int) ([]byte, error) {
	data, _, err := encodeSnapshotFrom(grouped, nil, nil, groups, k, workers)
	return data, err
}

// snapshotHeader opens every snapshot body.
const snapshotHeader = `{"records":[`

// encodeSnapshotFrom is encodeSnapshot for a body some of whose groups are
// already encoded in base: where reuse[gi] is set, grouped[gi] must be
// empty (SynthesizeGroupedExcept leaves it nil) and group gi's rows are
// copied from base, which must hold group gi. A nil reuse encodes every
// group. It also returns the body's group offsets: group gi's rows, each
// followed by a comma, are bytes offs[gi]:offs[gi+1] of the rows that
// start after the header. In the body the last row's comma is the
// trailer's "]".
func encodeSnapshotFrom(grouped [][]mat.Vector, reuse []bool, base *snapshotEntry, groups, k, workers int) ([]byte, []int, error) {
	reused := func(gi int) bool { return reuse != nil && reuse[gi] }
	bounds := splitByRecords(grouped, workers)
	parts := make([][]byte, len(bounds)-1)
	// offs[gi+1] holds group gi's length until the prefix sum below.
	offs := make([]int, len(grouped)+1)
	err := par.Run(len(parts), len(parts), func(p int) error {
		lo, hi := bounds[p], bounds[p+1]
		b, err := appendRows(grouped[lo:hi], offs[lo+1:hi+1])
		parts[p] = b
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for gi := range grouped {
		if reused(gi) {
			offs[gi+1] = base.offs[gi+1] - base.offs[gi]
		}
		offs[gi+1] += offs[gi]
	}

	var tail [64]byte
	trailer := append(tail[:0], `],"groups":`...)
	trailer = strconv.AppendInt(trailer, int64(groups), 10)
	trailer = append(trailer, `,"k":`...)
	trailer = strconv.AppendInt(trailer, int64(k), 10)
	trailer = append(trailer, "}\n"...)

	// Every row ends with a comma; the trailer overwrites the last one.
	h, n := len(snapshotHeader), offs[len(grouped)]
	body := make([]byte, h+n, h+max(n-1, 0)+len(trailer))
	copy(body, snapshotHeader)
	rows := body[h:]
	var baseRows []byte
	if base != nil {
		baseRows = base.body.data[h:]
	}
	for p, part := range parts {
		for gi := bounds[p]; gi < bounds[p+1]; gi++ {
			dst := rows[offs[gi]:offs[gi+1]]
			if !reused(gi) {
				part = part[copy(dst, part):]
				continue
			}
			end := base.offs[gi+1]
			copy(dst, baseRows[base.offs[gi]:end])
			if len(dst) > 0 && end == base.offs[len(base.offs)-1] {
				// The base's last row ended in the trailer's "]".
				dst[len(dst)-1] = ','
			}
		}
	}
	body = append(body[:h+max(n-1, 0)], trailer...)
	return body, offs, nil
}

// splitByRecords cuts grouped into at most workers contiguous group
// ranges of about equal record count, returned as boundaries
// 0 = b[0] ≤ … ≤ b[len-1] = len(grouped). Ranges may be empty.
func splitByRecords(grouped [][]mat.Vector, workers int) []int {
	total := 0
	for _, g := range grouped {
		total += len(g)
	}
	n := max(min(workers, total), 1)
	bounds := make([]int, 1, n+1)
	seen, gi := 0, 0
	for w := 1; w < n; w++ {
		target := total * w / n
		for gi < len(grouped) && seen+len(grouped[gi]) <= target {
			seen += len(grouped[gi])
			gi++
		}
		bounds = append(bounds, gi)
	}
	return append(bounds, len(grouped))
}

// appendRows encodes every record of groups, each as a JSON array
// followed by a comma, into a scratch slice sized once for the longest
// possible encoding: a value and its separator per coordinate, plus the
// brackets and trailing comma per row. It stores the length of group i's
// rows in lens[i].
func appendRows(groups [][]mat.Vector, lens []int) ([]byte, error) {
	need := 0
	for _, g := range groups {
		for _, x := range g {
			need += len(x)*(snapshotValueMax+1) + len("[],")
		}
	}
	b := make([]byte, 0, need)
	for i, g := range groups {
		start := len(b)
		for _, x := range g {
			b = append(b, '[')
			for j, v := range x {
				if j > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = appendFloat(b, v); err != nil {
					return nil, err
				}
			}
			b = append(b, ']', ',')
		}
		lens[i] = len(b) - start
	}
	return b, nil
}

// appendFloat appends v as encoding/json writes a float64.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("server: snapshot value %v has no JSON encoding", v)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
