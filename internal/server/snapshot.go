package server

import (
	"fmt"
	"math"
	"strconv"

	"condensation/internal/mat"
	"condensation/internal/par"
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
// of the trailer, into one exactly sized body: the read cache keeps that
// body, so it must carry no spare capacity.

// snapshotValueMax bounds the bytes one float64 takes in the encoding:
// "-0.0000012345678901234567" ('f' form just above 1e-6) is the longest.
const snapshotValueMax = 25

// encodeSnapshot renders the /v1/snapshot body for grouped synthesized
// records on up to workers goroutines. The result is identical for every
// worker count.
func encodeSnapshot(grouped [][]mat.Vector, groups, k, workers int) ([]byte, error) {
	bounds := splitByRecords(grouped, workers)
	parts := make([][]byte, len(bounds)-1)
	err := par.Run(len(parts), len(parts), func(p int) error {
		b, err := appendRows(grouped[bounds[p]:bounds[p+1]])
		parts[p] = b
		return err
	})
	if err != nil {
		return nil, err
	}

	const header = `{"records":[`
	var tail [64]byte
	trailer := append(tail[:0], `],"groups":`...)
	trailer = strconv.AppendInt(trailer, int64(groups), 10)
	trailer = append(trailer, `,"k":`...)
	trailer = strconv.AppendInt(trailer, int64(k), 10)
	trailer = append(trailer, "}\n"...)

	// Every row in the parts ends with a comma; the last one is dropped.
	rows := 0
	for _, b := range parts {
		rows += len(b)
	}
	rows = max(rows-1, 0)
	body := make([]byte, 0, len(header)+rows+len(trailer))
	body = append(body, header...)
	for _, b := range parts {
		body = append(body, b...)
	}
	body = append(body[:len(header)+rows], trailer...)
	return body, nil
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
// brackets and trailing comma per row.
func appendRows(groups [][]mat.Vector) ([]byte, error) {
	need := 0
	for _, g := range groups {
		for _, x := range g {
			need += len(x)*(snapshotValueMax+1) + len("[],")
		}
	}
	b := make([]byte, 0, need)
	for _, g := range groups {
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
