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

// FuzzEncodeSnapshot checks the fixed-shape encoder against encoding/json
// over arbitrary float64 bit patterns, row shapes and worker counts: the
// bodies must be byte-identical, and a non-finite value must fail both.
// Bit gi%64 of reuse marks group gi as reused: the body is then encoded
// again with those groups' rows copied from a base body whose other
// groups have different rows, and must still equal encoding/json's.
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
		f.Add(floatWords(v, 1), row, uint8(1), uint64(0))
	}
	shapes := []byte{0, 3<<2 | 3, 7 << 2, 1<<2 | 2, 0}
	for _, reuse := range []uint64{0, 1<<1 | 1<<3, 1 << 3, 1<<5 - 1, 1<<1 | 1<<2} {
		f.Add(floatWords(1e-6, -1e-6, 0.1, 123456789012345680000, 5e-324), shapes, uint8(3), reuse)
	}
	f.Fuzz(func(t *testing.T, values, shape []byte, workers uint8, reuse uint64) {
		grouped := fuzzGroups(values, shape)
		k := int(workers) - 100 // negative k values too
		want, werr := referenceSnapshot(grouped, len(grouped), k)
		got, gerr := encodeSnapshot(grouped, len(grouped), k, int(workers))
		if werr != nil || gerr != nil {
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("encoder error %v, encoding/json error %v", gerr, werr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder and encoding/json differ:\n got %s\nwant %s", got, want)
		}

		// The base holds the reused groups as they are and every other
		// group cut to its first half, so their offsets move.
		mask := make([]bool, len(grouped))
		baseGrouped := make([][]mat.Vector, len(grouped))
		partial := make([][]mat.Vector, len(grouped))
		for gi, g := range grouped {
			mask[gi] = reuse>>(gi%64)&1 == 1
			baseGrouped[gi] = g[:len(g)/2]
			if mask[gi] {
				baseGrouped[gi] = g
			} else {
				partial[gi] = g
			}
		}
		baseBody, baseOffs, err := encodeSnapshotFrom(baseGrouped, nil, nil, len(grouped), k, int(workers))
		if err != nil {
			t.Fatal(err)
		}
		base := &snapshotEntry{body: newRespBody(baseBody), offs: baseOffs}
		inc, offs, err := encodeSnapshotFrom(partial, mask, base, len(grouped), k, int(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inc, want) {
			t.Fatalf("reuse mask %b: incremental and from-scratch encodings differ:\n got %s\nwant %s", reuse, inc, want)
		}
		if cap(inc) != len(inc) {
			t.Fatalf("reuse mask %b: body cap %d, len %d", reuse, cap(inc), len(inc))
		}
		_, fullOffs, _ := encodeSnapshotFrom(grouped, nil, nil, len(grouped), k, int(workers))
		if fmt.Sprint(offs) != fmt.Sprint(fullOffs) {
			t.Fatalf("reuse mask %b: offsets %v, from scratch %v", reuse, offs, fullOffs)
		}
	})
}

// TestEncodeSnapshotWorkers pins the encoder to encoding/json at worker
// counts below, at and above the group count, with empty groups where
// the range boundaries fall.
func TestEncodeSnapshotWorkers(t *testing.T) {
	r := rng.New(3)
	group := func(n int) []mat.Vector {
		g := make([]mat.Vector, n)
		for i := range g {
			g[i] = mat.Vector{r.Norm(), r.Norm() * 1e-7, r.Norm() * 1e22}
		}
		return g
	}
	cases := map[string][][]mat.Vector{
		"no groups":       {},
		"empty groups":    {group(0), group(0)},
		"one group":       {group(5)},
		"empty at bounds": {group(0), group(4), group(0), group(0), group(6), group(1), group(0), group(5), group(0)},
		"uneven":          {group(1), group(30), group(2), group(0), group(3)},
	}
	for name, grouped := range cases {
		want, err := referenceSnapshot(grouped, len(grouped), 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, len(grouped) + 5} {
			got, err := encodeSnapshot(grouped, len(grouped), 4, workers)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", name, workers, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d workers: encoder and encoding/json differ:\n got %s\nwant %s", name, workers, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s, %d workers: body cap %d, len %d", name, workers, cap(got), len(got))
			}
		}
	}
}

// TestSplitByRecords checks the worker ranges: contiguous, covering every
// group, and balanced to within one group's records of an equal share.
func TestSplitByRecords(t *testing.T) {
	sizes := []int{0, 4, 0, 0, 6, 1, 0, 5, 0}
	grouped := make([][]mat.Vector, len(sizes))
	for i, n := range sizes {
		grouped[i] = make([]mat.Vector, n)
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 100} {
		b := splitByRecords(grouped, workers)
		if b[0] != 0 || b[len(b)-1] != len(grouped) || len(b)-1 > max(workers, 1) {
			t.Fatalf("%d workers: bounds %v", workers, b)
		}
		share := 16 / (len(b) - 1)
		for p := 0; p+1 < len(b); p++ {
			if b[p] > b[p+1] {
				t.Fatalf("%d workers: bounds %v not monotone", workers, b)
			}
			n := 0
			for _, g := range grouped[b[p]:b[p+1]] {
				n += len(g)
			}
			if n > share+6 {
				t.Fatalf("%d workers: range %d holds %d records, share %d: bounds %v", workers, p, n, share, b)
			}
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
	if slack := cap(e.body.data) - len(e.body.data); slack > 64 {
		t.Fatalf("cached body holds %d bytes of spare capacity (len %d)", slack, len(e.body.data))
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
				if _, err := encodeSnapshot(grouped, cond.NumGroups(), k, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
