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
// The rows are stored in blocks: a block holds the encoded rows of
// snapshotBlockGroups consecutive groups (the last block may hold fewer),
// every row followed by a comma, and the offset of each group's rows.
// Blocks are immutable once built, so a release's snapshot entry can hold
// blocks of its base's entry by pointer. Serving writes the header, the
// blocks in order (the last row without its comma: the trailer's "]"
// takes its place) and the trailer; the bytes are exactly the one-piece
// encoding.
//
// strconv.AppendFloat is most of the cost and already the floor for one
// goroutine, so the blocks to encode are spread over par.Workers(0)
// workers, each formatting into one reused scratch slice and copying each
// block out at its exact size: the release keeps the blocks, so they must
// carry no spare capacity.
//
// After a write, most groups are unchanged, and so are their rows: a
// group's synthesized records depend only on its moments and its rng
// stream, the gi-th split of the seed. A rebuild therefore skips every
// group the new condensation shares with the previous build at the same
// seed (core.Condensation.SharesGroup: the same group object at the same
// index). A block all of whose groups are shared, holding as many groups
// as the previous build's block, is that block itself; any other block is
// rebuilt from the previous block's rows of its shared groups and newly
// synthesized and encoded rows of the rest. A one-record write thus
// rebuilds one block, or two when a split appends a group; a split in an
// earlier shard moves every later group to a new index, so every block
// from there on is rebuilt. When the release withholds nothing, its
// condensation is the engine's cut itself, so group identity carries over
// exactly.

// snapshotValueMax bounds the bytes one float64 takes in the encoding:
// "-0.0000012345678901234567" ('f' form just above 1e-6) is the longest.
const snapshotValueMax = 25

// snapshotBlockGroups is the number of groups a snapshot block holds,
// chosen by measurement (DESIGN.md §6h). At G = 800 groups of 25 dim-8
// records a block is about 250 KB, so a one-record write copies and
// allocates about 8% of the 3.15 MB body, and a cached read writes 15
// parts instead of one. Smaller blocks make a miss cheaper but a hit
// dearer (one write per block), and each large block wastes half a heap
// page on average.
const snapshotBlockGroups = 64

// snapshotHeader opens every snapshot body; the bodies share it, so it is
// never written.
var snapshotHeader = []byte(`{"records":[`)

// snapshotBlock is the encoded rows of one run of consecutive groups:
// group i of the run is rows[offs[i]:offs[i+1]], each of its rows
// followed by a comma. A block is shared between entries and never
// written after it is built.
type snapshotBlock struct {
	rows []byte
	offs []int
}

// groups returns the number of groups the block holds.
func (b *snapshotBlock) groups() int { return len(b.offs) - 1 }

// buildSnapshot synthesizes rel's groups under seed and encodes the body,
// reusing base's blocks and rows for every group rel shares with base's
// release. A nil base builds from scratch.
func buildSnapshot(rel *core.Release, seed uint64, base *snapshotEntry) (*snapshotEntry, error) {
	cond := rel.Condensation()
	var reuse []bool
	var baseBlocks []*snapshotBlock
	if base != nil {
		reuse = make([]bool, cond.NumGroups())
		prev := base.rel.Condensation()
		for gi := range reuse {
			reuse[gi] = cond.SharesGroup(prev, gi)
		}
		baseBlocks = base.blocks
	}
	grouped, err := cond.SynthesizeGroupedExcept(rng.New(seed), reuse)
	if err != nil {
		return nil, err
	}
	blocks, err := buildBlocks(grouped, reuse, baseBlocks, par.Workers(0))
	if err != nil {
		return nil, err
	}
	return &snapshotEntry{rel: rel, blocks: blocks, body: snapshotBody(blocks, cond.NumGroups(), cond.K())}, nil
}

// buildBlocks returns the blocks of a body of len(grouped) groups,
// encoding on up to workers goroutines; the result is the same for every
// worker count. Where reuse[gi] is set, grouped[gi] must be empty
// (SynthesizeGroupedExcept leaves it nil) and group gi's rows are taken
// from base, which must hold group gi. A block whose groups are all
// reused and which holds as many groups as base's block at its index is
// base's block itself; every other block is encoded anew. A nil reuse
// encodes every group.
func buildBlocks(grouped [][]mat.Vector, reuse []bool, base []*snapshotBlock, workers int) ([]*snapshotBlock, error) {
	blocks := make([]*snapshotBlock, (len(grouped)+snapshotBlockGroups-1)/snapshotBlockGroups)
	var todo []int
	for bi := range blocks {
		lo, hi := blockRange(bi, len(grouped))
		if reuse != nil && bi < len(base) && base[bi].groups() == hi-lo && allSet(reuse[lo:hi]) {
			blocks[bi] = base[bi]
			continue
		}
		todo = append(todo, bi)
	}
	err := par.RunChunks(len(todo), workers, func(lo, hi int) error {
		var scratch []byte
		for _, bi := range todo[lo:hi] {
			glo, ghi := blockRange(bi, len(grouped))
			var used []bool
			if reuse != nil {
				used = reuse[glo:ghi]
			}
			var prev *snapshotBlock
			if bi < len(base) {
				prev = base[bi]
			}
			b, s, err := encodeBlock(scratch, grouped[glo:ghi], used, prev)
			if err != nil {
				return err
			}
			blocks[bi], scratch = b, s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

// blockRange returns the groups lo:hi of block bi of a body of n groups.
func blockRange(bi, n int) (lo, hi int) {
	lo = bi * snapshotBlockGroups
	return lo, min(lo+snapshotBlockGroups, n)
}

// allSet reports whether every entry of m is set.
func allSet(m []bool) bool {
	for _, v := range m {
		if !v {
			return false
		}
	}
	return true
}

// encodeBlock builds one block: the groups whose reuse entry is set are
// copied from base's rows at the same position, the rest are encoded
// into scratch first. Scratch is grown at most once, to the longest
// possible encoding of those groups: a value and its separator per
// coordinate, plus the brackets and trailing comma per row. The block is
// allocated at its exact size once all lengths are known. encodeBlock
// returns scratch for the next block.
func encodeBlock(scratch []byte, groups [][]mat.Vector, reuse []bool, base *snapshotBlock) (*snapshotBlock, []byte, error) {
	need := 0
	for i, g := range groups {
		if reuse == nil || !reuse[i] {
			for _, x := range g {
				need += len(x)*(snapshotValueMax+1) + len("[],")
			}
		}
	}
	if cap(scratch) < need {
		scratch = make([]byte, 0, need)
	}
	// offs[i+1] holds group i's length until the prefix sum below.
	offs := make([]int, len(groups)+1)
	scratch = scratch[:0]
	for i, g := range groups {
		if reuse != nil && reuse[i] {
			offs[i+1] = base.offs[i+1] - base.offs[i]
			continue
		}
		start := len(scratch)
		var err error
		if scratch, err = appendRows(scratch, g); err != nil {
			return nil, nil, err
		}
		offs[i+1] = len(scratch) - start
	}
	for i := range groups {
		offs[i+1] += offs[i]
	}
	rows := make([]byte, offs[len(groups)])
	fresh := scratch
	for i := range groups {
		dst := rows[offs[i]:offs[i+1]]
		if reuse != nil && reuse[i] {
			copy(dst, base.rows[base.offs[i]:base.offs[i+1]])
		} else {
			fresh = fresh[copy(dst, fresh):]
		}
	}
	return &snapshotBlock{rows: rows, offs: offs}, scratch, nil
}

// snapshotBody prepares blocks for serving as the body of a snapshot of
// the given group count and k: the header, every non-empty block, the
// last of them without its final comma, and the trailer.
func snapshotBody(blocks []*snapshotBlock, groups, k int) *respBody {
	trailer := make([]byte, 0, 64)
	trailer = append(trailer, `],"groups":`...)
	trailer = strconv.AppendInt(trailer, int64(groups), 10)
	trailer = append(trailer, `,"k":`...)
	trailer = strconv.AppendInt(trailer, int64(k), 10)
	trailer = append(trailer, "}\n"...)

	parts := make([][]byte, 1, len(blocks)+2)
	parts[0] = snapshotHeader
	for _, b := range blocks {
		if len(b.rows) > 0 {
			parts = append(parts, b.rows)
		}
	}
	if last := len(parts) - 1; last > 0 {
		parts[last] = parts[last][:len(parts[last])-1]
	}
	return newRespBody(append(parts, trailer)...)
}

// appendRows appends every record of g to b, each as a JSON array
// followed by a comma.
func appendRows(b []byte, g []mat.Vector) ([]byte, error) {
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
