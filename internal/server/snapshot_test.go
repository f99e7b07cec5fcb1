package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// snapshotResponse is the /v1/snapshot body as a Go value: what clients
// decode, and what encoding/json encodes for the reference.
type snapshotResponse struct {
	Records [][]float64 `json:"records"`
	Groups  int         `json:"groups"`
	K       int         `json:"k"`
}

// referenceSnapshot is the encoding/json body the snapshot handler served
// before the fixed-shape encoder: the grouped records flattened into one
// snapshotResponse and written by json.Encoder, trailing newline included.
func referenceSnapshot(grouped [][]mat.Vector, groups, k int) ([]byte, error) {
	resp := snapshotResponse{Records: [][]float64{}, Groups: groups, K: k}
	for _, g := range grouped {
		for _, x := range g {
			resp.Records = append(resp.Records, x)
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// fuzzGroups builds grouped records from fuzz input: each shape byte is
// one group of shape&3 rows, each (shape>>2)&7 values wide. Values are the
// input's 8-byte words as float64 bit patterns, reused cyclically.
func fuzzGroups(values, shape []byte) [][]mat.Vector {
	words := make([]float64, 0, len(values)/8)
	for i := 0; i+8 <= len(values); i += 8 {
		words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(values[i:])))
	}
	next := 0
	grouped := make([][]mat.Vector, len(shape))
	for gi, s := range shape {
		g := make([]mat.Vector, s&3)
		for r := range g {
			g[r] = make(mat.Vector, int(s>>2)&7)
			for j := range g[r] {
				if len(words) > 0 {
					g[r][j] = words[next%len(words)]
					next++
				}
			}
		}
		grouped[gi] = g
	}
	return grouped
}

func floatWords(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// encodeSnapshot is the from-scratch snapshot body of grouped: every
// block encoded on up to workers goroutines, joined behind the header and
// ahead of the trailer.
func encodeSnapshot(grouped [][]mat.Vector, groups, k, workers int) ([]byte, error) {
	blocks, err := buildBlocks(grouped, nil, nil, workers)
	if err != nil {
		return nil, err
	}
	return bodyBytes(snapshotBody(blocks, groups, k)), nil
}

// bodyBytes joins a prepared body's parts into the bytes it serves.
func bodyBytes(b *respBody) []byte { return bytes.Join(b.parts, nil) }

// checkBlocksExact fails unless every block carries no spare capacity.
func checkBlocksExact(t *testing.T, blocks []*snapshotBlock) {
	t.Helper()
	for bi, b := range blocks {
		if cap(b.rows) != len(b.rows) {
			t.Fatalf("block %d: rows cap %d, len %d", bi, cap(b.rows), len(b.rows))
		}
	}
}

// manyGroups is a fuzz shape of n groups, cycling through empty groups
// and one to three rows of up to seven values, so the snapshot spans
// several blocks.
func manyGroups(n int) []byte {
	shape := make([]byte, n)
	for i := range shape {
		shape[i] = byte(i*5+1) & 31
	}
	return shape
}

// FuzzEncodeSnapshot checks the fixed-shape encoder against encoding/json
// over arbitrary float64 bit patterns, row shapes and worker counts: the
// bodies must be byte-identical, and a non-finite value must fail both.
// Bit gi%64 of reuse marks group gi as reused: the body is then built
// again from a base whose other groups have different rows, and which
// holds extra groups more (or −extra fewer) than the body, so its last
// blocks hold other group counts or do not exist. The rebuilt body must
// still equal encoding/json's, every block must be exactly sized and hold
// the from-scratch offsets, and a block must be the base's own block
// exactly when all its groups are reused and the base's block holds as
// many groups.
func FuzzEncodeSnapshot(f *testing.F) {
	row := []byte{2<<2 | 1} // one group of one two-value row
	for _, v := range []float64{
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		1e-7,
		9.999999999999999e20,
		1e21,
		1e-100,
		math.MaxFloat64,
		-4.5e-9, // e-09 → e-9 cleanup
		math.NaN(),
		math.Inf(-1),
	} {
		f.Add(floatWords(v, 1), row, uint8(1), uint64(0), int8(0))
	}
	shapes := []byte{0, 3<<2 | 3, 7 << 2, 1<<2 | 2, 0}
	for _, reuse := range []uint64{0, 1<<1 | 1<<3, 1 << 3, 1<<5 - 1, 1<<1 | 1<<2} {
		f.Add(floatWords(1e-6, -1e-6, 0.1, 123456789012345680000, 5e-324), shapes, uint8(3), reuse, int8(0))
	}
	// Three blocks and a part: groups appended to or removed from the base.
	for _, extra := range []int8{-40, -1, 1, 40} {
		f.Add(floatWords(0.5, -2.25, 1e-9, 7), manyGroups(100), uint8(2), ^uint64(0)>>1, extra)
	}
	f.Fuzz(func(t *testing.T, values, shape []byte, workers uint8, reuse uint64, extra int8) {
		grouped := fuzzGroups(values, shape)
		k := int(workers) - 100 // negative k values too
		want, werr := referenceSnapshot(grouped, len(grouped), k)
		full, gerr := buildBlocks(grouped, nil, nil, int(workers))
		if werr != nil || gerr != nil {
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("encoder error %v, encoding/json error %v", gerr, werr)
			}
			return
		}
		if got := bodyBytes(snapshotBody(full, len(grouped), k)); !bytes.Equal(got, want) {
			t.Fatalf("encoder and encoding/json differ:\n got %s\nwant %s", got, want)
		}
		checkBlocksExact(t, full)

		// The base holds the reused groups as they are, every other group
		// cut to its first half, so their offsets move, and past the
		// body's groups (extra > 0) copies of its first groups.
		nBase := max(len(grouped)+int(extra), 0)
		baseGrouped := make([][]mat.Vector, nBase)
		mask := make([]bool, len(grouped))
		partial := make([][]mat.Vector, len(grouped))
		for gi := range max(nBase, len(grouped)) {
			if gi >= len(grouped) {
				if len(grouped) > 0 {
					baseGrouped[gi] = grouped[gi%len(grouped)]
				}
				continue
			}
			g := grouped[gi]
			mask[gi] = gi < nBase && reuse>>(gi%64)&1 == 1
			if mask[gi] {
				baseGrouped[gi] = g
				continue
			}
			partial[gi] = g
			if gi < nBase {
				baseGrouped[gi] = g[:len(g)/2]
			}
		}
		base, err := buildBlocks(baseGrouped, nil, nil, int(workers))
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := buildBlocks(partial, mask, base, int(workers))
		if err != nil {
			t.Fatal(err)
		}
		if inc := bodyBytes(snapshotBody(blocks, len(grouped), k)); !bytes.Equal(inc, want) {
			t.Fatalf("reuse mask %b, extra %d: incremental and from-scratch encodings differ:\n got %s\nwant %s", reuse, extra, inc, want)
		}
		checkBlocksExact(t, blocks)
		for bi, b := range blocks {
			lo, hi := blockRange(bi, len(grouped))
			shared := bi < len(base) && base[bi].groups() == hi-lo && allSet(mask[lo:hi])
			if got := bi < len(base) && b == base[bi]; got != shared {
				t.Fatalf("reuse mask %b, extra %d: block %d shared with the base %v, want %v", reuse, extra, bi, got, shared)
			}
			if fmt.Sprint(b.offs) != fmt.Sprint(full[bi].offs) {
				t.Fatalf("reuse mask %b, extra %d: block %d offsets %v, from scratch %v", reuse, extra, bi, b.offs, full[bi].offs)
			}
		}
	})
}

// TestEncodeSnapshotWorkers pins the encoder to encoding/json at worker
// counts below, at and above the group and block counts, with empty
// groups where the worker and block boundaries fall, and requires every
// block to be exactly sized.
func TestEncodeSnapshotWorkers(t *testing.T) {
	r := rng.New(3)
	group := func(n int) []mat.Vector {
		g := make([]mat.Vector, n)
		for i := range g {
			g[i] = mat.Vector{r.Norm(), r.Norm() * 1e-7, r.Norm() * 1e22}
		}
		return g
	}
	blocks := make([][]mat.Vector, 3*snapshotBlockGroups+5)
	for gi := range blocks {
		blocks[gi] = group(gi % 3)
		if gi%snapshotBlockGroups == 0 || gi == len(blocks)-1 {
			blocks[gi] = group(0)
		}
	}
	emptyLast := make([][]mat.Vector, snapshotBlockGroups+3)
	for gi := range emptyLast {
		if gi < snapshotBlockGroups {
			emptyLast[gi] = group(1)
		}
	}
	cases := map[string][][]mat.Vector{
		"no groups":        {},
		"empty groups":     {group(0), group(0)},
		"one group":        {group(5)},
		"empty at bounds":  {group(0), group(4), group(0), group(0), group(6), group(1), group(0), group(5), group(0)},
		"uneven":           {group(1), group(30), group(2), group(0), group(3)},
		"several blocks":   blocks,
		"empty last block": emptyLast,
	}
	for name, grouped := range cases {
		want, err := referenceSnapshot(grouped, len(grouped), 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, len(grouped) + 5} {
			bs, err := buildBlocks(grouped, nil, nil, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if got := bodyBytes(snapshotBody(bs, len(grouped), 4)); !bytes.Equal(got, want) {
				t.Fatalf("%s, %d workers: encoder and encoding/json differ:\n got %s\nwant %s", name, workers, got, want)
			}
			checkBlocksExact(t, bs)
		}
	}
}

// TestSnapshotMatchesEncodingJSON serves /v1/snapshot at one and four
// shards over several seeds and value scales (the scales reach both of
// encoding/json's exponent cutoffs) and requires each body to equal
// encoding/json's encoding of the same synthesis.
func TestSnapshotMatchesEncodingJSON(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, scale := range []float64{1, 1e-7, 1e22} {
			ts := newShardedServer(t, 5, shards)
			recs := genRecords(uint64(shards)+11, 400)
			for _, x := range recs {
				x[0] *= scale
			}
			if resp := postRecords(t, ts, recs); resp.StatusCode != http.StatusOK {
				t.Fatalf("POST status %d", resp.StatusCode)
			}
			s := serverFromTS(t, ts)
			cond := s.eng.Condensation()
			for _, seed := range []uint64{1, 2, 3, 99} {
				grouped, err := cond.SynthesizeGrouped(rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceSnapshot(grouped, cond.NumGroups(), cond.K())
				if err != nil {
					t.Fatal(err)
				}
				resp, got := getWith(t, fmt.Sprintf("%s/v1/snapshot?seed=%d", ts.URL, seed), nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("snapshot status %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("shards=%d scale=%g seed=%d: body differs from encoding/json", shards, scale, seed)
				}
			}
		}
	}
}

// TestSnapshotCachedBodyExact guards the release's memory: the kept
// snapshot body must be the exactly sized copy, not a worker's presized
// scratch slice with its slack.
func TestSnapshotCachedBodyExact(t *testing.T) {
	ts := newShardedServer(t, 5, 2)
	postRecords(t, ts, genRecords(4, 600))
	if resp, body := getWith(t, ts.URL+"/v1/snapshot?seed=7", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", resp.StatusCode, body)
	}
	s := serverFromTS(t, ts)
	e := snapshotEntryOf(s.release(), 7)
	if e == nil {
		t.Fatal("snapshot not kept on the release")
	}
	if len(e.blocks) < 2 {
		t.Fatalf("snapshot of %d groups stored in %d blocks", s.release().Condensation().NumGroups(), len(e.blocks))
	}
	checkBlocksExact(t, e.blocks)
	slack, n := 0, 0
	for _, p := range e.body.parts {
		slack += cap(p) - len(p)
		n += len(p)
	}
	if slack > 64 {
		t.Fatalf("cached body holds %d bytes of spare capacity (len %d)", slack, n)
	}
}

// TestSnapshotNonFinite500 serves a state whose synthesis yields NaN:
// moments near the float64 limit, whose eigensolve overflows. The
// request must fail with a 500, and no body may be cached.
func TestSnapshotNonFinite500(t *testing.T) {
	// Static construction and the stream refuse the records (±v, ±v), so
	// their moments come in as a decoded checkpoint: a one-group file whose
	// group encoding, the file's tail, is swapped for those moments.
	const v = 5e153
	huge, err := stats.FromMoments(4, mat.Vector{0, 0}, mat.Diagonal(mat.Vector{4 * v * v, 4 * v * v}))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := huge.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	small, err := newCondenser(t, 4, 1).Static([]mat.Vector{{1, 1}, {-1, -1}, {1, -1}, {-1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := small.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()
	copy(ckpt[len(ckpt)-len(enc):], enc)
	cond, err := core.ReadCondensation(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Condenser: newCondenser(t, 4, 0), Initial: cond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, body := getWith(t, ts.URL+"/v1/snapshot", nil)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("snapshot status %d, want 500: %s", resp.StatusCode, body)
		}
		if !bytes.Contains(body, []byte("NaN")) {
			t.Fatalf("error body %s does not name the value", body)
		}
	}
	if e := snapshotEntryOf(s.release(), 1); e != nil {
		t.Fatal("a failed snapshot left a body or a reuse base on the release")
	}
}

// BenchmarkEncodeSnapshot times the encoder alone on a 20000 × 8
// synthesized snapshot (800 groups of 25), against encoding/json and
// with one worker, the floor set by strconv.AppendFloat.
func BenchmarkEncodeSnapshot(b *testing.B) {
	const n, dim, k = 20000, 8, 25
	r := rng.New(8)
	recs := make([]mat.Vector, n)
	for i := range recs {
		recs[i] = make(mat.Vector, dim)
		for j := range recs[i] {
			recs[i][j] = r.Norm()
		}
	}
	c, err := core.NewCondenser(k, core.WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	cond, err := c.Static(recs)
	if err != nil {
		b.Fatal(err)
	}
	grouped, err := cond.SynthesizeGrouped(rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	want, err := referenceSnapshot(grouped, cond.NumGroups(), k)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		for i := 0; i < b.N; i++ {
			if _, err := referenceSnapshot(grouped, cond.NumGroups(), k); err != nil {
				b.Fatal(err)
			}
		}
	})
	counts := []int{1}
	if n := par.Workers(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			for i := 0; i < b.N; i++ {
				blocks, err := buildBlocks(grouped, nil, nil, workers)
				if err != nil {
					b.Fatal(err)
				}
				snapshotBody(blocks, cond.NumGroups(), k)
			}
		})
	}
}
