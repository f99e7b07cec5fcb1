package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
)

// newIncrementalServer builds a dim-2 server with k = 3, so a few dozen
// records force splits.
func newIncrementalServer(t *testing.T, shards int) *Server {
	t.Helper()
	c, err := core.NewCondenser(3, core.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Dim: 2, Condenser: c, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postBatch sends one POST /v1/records through the handler.
func postBatch(t testing.TB, s *Server, recs [][]float64) {
	body, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		t.Error(err)
		return
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Errorf("POST status %d: %s", w.Code, w.Body.String())
	}
}

// snapshotOf serves seed's snapshot body from the current release.
func snapshotOf(s *Server, seed uint64) (*respBody, error) {
	return s.release().snapshot(seed, s.cmSnapshot)
}

// fromScratch is the snapshot body of the current release built with no
// reuse: synthesize every released group, encode every released group.
func fromScratch(t *testing.T, s *Server, seed uint64) []byte {
	t.Helper()
	cond := s.release().Condensation()
	grouped, err := cond.SynthesizeGrouped(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeSnapshot(grouped, cond.NumGroups(), cond.K(), par.Workers(0))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestIncrementalSnapshotDifferential interleaves single-record Adds and
// HTTP batches that force splits with snapshot reads alternating across
// two seeds, and requires every served body to equal a from-scratch
// build of the same state. At 3 shards it also requires a read after a
// shard-0 split, which shifts every later shard's groups to new indices
// and so new rng streams: none of those groups may be reused.
func TestIncrementalSnapshotDifferential(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newIncrementalServer(t, shards)
			r := rng.New(uint64(40 + shards))
			record := func() []float64 { return []float64{r.Norm() * 3, r.Norm()} }
			postBatch(t, s, [][]float64{record(), record(), record(), record(), record(), record()})

			seeds := []uint64{7, 8}
			prev := map[uint64]*snapshotEntry{}
			prevG0 := map[uint64]int{}
			reused, shifted := 0, 0
			for step := 0; step < 160; step++ {
				if r.IntN(3) == 0 {
					batch := make([][]float64, 1+r.IntN(12))
					for i := range batch {
						batch[i] = record()
					}
					postBatch(t, s, batch)
				} else if err := s.eng.Add(record()); err != nil {
					t.Fatal(err)
				}
				seed := seeds[step%2]
				got, err := snapshotOf(s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bodyBytes(got), fromScratch(t, s, seed)) {
					t.Fatalf("step %d seed %d: served body differs from a from-scratch build", step, seed)
				}
				rel := s.release()
				e := snapshotEntryOf(rel, seed)
				if e == nil || e.rel != rel.Release || e.body != got {
					t.Fatalf("step %d: the served body is not the seed's entry in the current release", step)
				}
				g0 := len(e.rel.ShardSizes(0))
				cond := e.rel.Condensation()
				if p := prev[seed]; p != nil {
					for gi := 0; gi < cond.NumGroups(); gi++ {
						if cond.SharesGroup(p.rel.Condensation(), gi) {
							reused++
						}
					}
					if g0 > prevG0[seed] && cond.NumGroups() > g0 {
						// Shard 0 split: every later shard's group sits
						// at a new index, so none of them is reused.
						shifted++
						for gi := g0; gi < cond.NumGroups(); gi++ {
							if cond.SharesGroup(p.rel.Condensation(), gi) {
								t.Fatalf("step %d: group %d reused across a shift", step, gi)
							}
						}
					}
				}
				prev[seed], prevG0[seed] = e, g0
			}
			if reused == 0 {
				t.Fatal("no group was ever reused: the incremental path never ran")
			}
			if shards > 1 && shifted == 0 {
				t.Fatal("no read followed a shard-0 split that shifted later shards")
			}
		})
	}
}

// TestIncrementalSnapshotConcurrent runs writers and readers of two seeds
// together, so reuse bases are built from states that move mid-build.
// Each round then stops the writers and requires both seeds' bodies to
// equal a from-scratch build: a base from a racing build must still
// yield exact bytes. Run it under -race.
func TestIncrementalSnapshotConcurrent(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newIncrementalServer(t, shards)
			postBatch(t, s, genRecords(3, 40))
			for round := 0; round < 4; round++ {
				var wg sync.WaitGroup
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						r := rng.New(uint64(100*round + w))
						for i := 0; i < 25; i++ {
							if i%3 == 0 {
								postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}, {r.Norm(), r.Norm()}})
							} else if err := s.eng.Add(mat.Vector{r.Norm(), r.Norm()}); err != nil {
								t.Error(err)
							}
						}
					}(w)
				}
				for rd := 0; rd < 2; rd++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						for i := 0; i < 15; i++ {
							b, err := snapshotOf(s, seed)
							if err != nil {
								t.Error(err)
								return
							}
							var resp snapshotResponse
							if err := json.Unmarshal(bodyBytes(b), &resp); err != nil {
								t.Errorf("seed %d: served body is not JSON: %v", seed, err)
								return
							}
						}
					}(uint64(1 + rd))
				}
				wg.Wait()
				for _, seed := range []uint64{1, 2} {
					got, err := snapshotOf(s, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bodyBytes(got), fromScratch(t, s, seed)) {
						t.Fatalf("round %d seed %d: body after concurrent rebuilds differs from a from-scratch build", round, seed)
					}
				}
			}
		})
	}
}

// TestSnapshotBlocksShared follows one seed's snapshot through
// one-record POSTs at 1 and 3 shards. Each new entry must share every
// block with its base except the blocks holding a group the write
// changed, plus the last block when the group count changed; at 1 shard
// a write changes at most two groups (the one it joined, and the one a
// split appended). After a shard-0 split at 3 shards every block from the
// first shifted group on must be rebuilt. Every served body must equal a
// from-scratch build, and every block must be exactly sized.
func TestSnapshotBlocksShared(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newIncrementalServer(t, shards)
			postBatch(t, s, genRecords(uint64(50+shards), 1000))
			const seed = 9
			if _, err := snapshotOf(s, seed); err != nil {
				t.Fatal(err)
			}
			prev := snapshotEntryOf(s.release(), seed)
			if len(prev.blocks) < 3 {
				t.Fatalf("%d groups fill only %d blocks", prev.rel.Condensation().NumGroups(), len(prev.blocks))
			}
			r := rng.New(uint64(60 + shards))
			shared, grown, shifted := 0, 0, 0
			for step := 0; step < 120; step++ {
				postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}})
				got, err := snapshotOf(s, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bodyBytes(got), fromScratch(t, s, seed)) {
					t.Fatalf("step %d: served body differs from a from-scratch build", step)
				}
				e := snapshotEntryOf(s.release(), seed)
				if e == nil || e.body != got {
					t.Fatalf("step %d: the served body is not the seed's entry", step)
				}
				checkBlocksExact(t, e.blocks)

				cond, pc := e.rel.Condensation(), prev.rel.Condensation()
				rebuilt := make([]bool, len(e.blocks))
				changed := 0
				for gi := 0; gi < cond.NumGroups(); gi++ {
					if !cond.SharesGroup(pc, gi) {
						changed++
						rebuilt[gi/snapshotBlockGroups] = true
					}
				}
				if cond.NumGroups() != pc.NumGroups() {
					grown++
					rebuilt[len(rebuilt)-1] = true
				}
				if shards == 1 && changed > 2 {
					t.Fatalf("step %d: one record changed %d groups", step, changed)
				}
				if g0, pg0 := len(e.rel.ShardSizes(0)), len(prev.rel.ShardSizes(0)); g0 > pg0 && cond.NumGroups() > g0 {
					// Shard 0 split: its new group sits at pg0 and every
					// group after it moved up one index.
					shifted++
					for bi := pg0 / snapshotBlockGroups; bi < len(rebuilt); bi++ {
						if !rebuilt[bi] {
							t.Fatalf("step %d: block %d follows a shard-0 split but holds no changed group", step, bi)
						}
					}
				}
				for bi, b := range e.blocks {
					same := bi < len(prev.blocks) && b == prev.blocks[bi]
					if same == rebuilt[bi] {
						t.Fatalf("step %d: block %d shared with the base %v, want %v", step, bi, same, !rebuilt[bi])
					}
					if same {
						shared++
					}
				}
				prev = e
			}
			if shared == 0 || grown == 0 {
				t.Fatalf("%d blocks shared, %d writes split a group: the test exercised neither", shared, grown)
			}
			if shards > 1 && shifted == 0 {
				t.Fatal("no write split shard 0")
			}
		})
	}
}
