package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
)

// TestReleaseGateBootstrap: a pure-stream server with k = 10 that has
// ingested one record has nothing to release. The snapshot refuses with
// 409, the checkpoint holds no group, and stats count the record as
// withheld. Once a shard's group reaches k records it is released.
func TestReleaseGateBootstrap(t *testing.T) {
	const k = 10
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := New(Config{Engine: sharded(t, newCondenser(t, k, 3), 2, shards)})
			if err != nil {
				t.Fatal(err)
			}
			get := func(path string) *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				return w
			}
			stats := func() statsResponse {
				var st statsResponse
				if err := json.Unmarshal(get("/v1/stats").Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				return st
			}
			r := rng.New(17)
			postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}})

			if w := get("/v1/snapshot"); w.Code != http.StatusConflict {
				t.Fatalf("snapshot of one record: status %d, want 409: %s", w.Code, w.Body)
			}
			cond, err := core.ReadCondensation(get("/v1/checkpoint").Body)
			if err != nil {
				t.Fatal(err)
			}
			if cond.NumGroups() != 0 {
				t.Fatalf("checkpoint of one record holds %d groups", cond.NumGroups())
			}
			if st := stats(); st.Records != 0 || st.Groups != 0 || st.WithheldRecords != 1 {
				t.Fatalf("stats of one record: %d records in %d groups, %d withheld; want 0, 0, 1",
					st.Records, st.Groups, st.WithheldRecords)
			}

			for i := 0; get("/v1/snapshot").Code != http.StatusOK; i++ {
				if i == 100*k*shards {
					t.Fatal("no shard ever released a group")
				}
				postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}})
			}
			full := 0
			for i := 0; i < shards; i++ {
				if records, _, _ := s.eng.ShardCounts(i); records >= k {
					full++
				}
			}
			if full == 0 {
				t.Fatal("a group was released before any shard held k records")
			}
			st := stats()
			if st.Records < k || st.Records+st.WithheldRecords != s.eng.TotalCount() {
				t.Fatalf("stats: %d released + %d withheld records, engine holds %d",
					st.Records, st.WithheldRecords, s.eng.TotalCount())
			}
		})
	}
}

// TestReleaseInstallNeverRegresses: a stable cut of an older generation
// is served to its request but never replaces a newer current release,
// and a cut of the current generation shares the installed release.
func TestReleaseInstallNeverRegresses(t *testing.T) {
	s := newIncrementalServer(t, 1)
	postBatch(t, s, genRecords(2, 12))
	old := s.release()
	postBatch(t, s, genRecords(3, 1))
	cur := s.release()
	if cur.Generation() <= old.Generation() {
		t.Fatalf("generation did not advance: %d then %d", old.Generation(), cur.Generation())
	}
	stale := newRelease(old.Release, true, nil)
	if got := s.install(stale); got != stale || s.cur.Load() != cur {
		t.Fatal("an older cut replaced the current release")
	}
	same := newRelease(cur.Release, true, nil)
	if got := s.install(same); got != cur {
		t.Fatal("a cut of the current generation did not share the installed release")
	}
}

// TestStatsSplitsFromRelease: a release's /v1/stats body reports the
// split count of the engine cut it was taken from, even when the body is
// first built after the engine has split more groups.
func TestStatsSplitsFromRelease(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newIncrementalServer(t, shards)
			postBatch(t, s, genRecords(6, 40))
			rel := s.release()
			want := s.eng.Splits()
			r := rng.New(7)
			for s.eng.Splits() == want {
				if err := s.eng.Add(mat.Vector{r.Norm(), r.Norm()}); err != nil {
					t.Fatal(err)
				}
			}
			body, err := s.stats(rel, false)
			if err != nil {
				t.Fatal(err)
			}
			var st statsResponse
			if err := json.Unmarshal(bytes.Join(body.parts, nil), &st); err != nil {
				t.Fatal(err)
			}
			if st.Splits != want || rel.Splits() != want {
				t.Fatalf("stats body of the release reports %d splits (release %d), the cut had %d", st.Splits, rel.Splits(), want)
			}
		})
	}
}

// TestReleaseCoherentUnderWriters runs writers against readers that each
// take one release and derive every artifact from it: the checkpoint,
// the stats, the audit, the group summaries and the snapshot of one
// release must agree on its groups and records, however the engine moves
// meanwhile. Run it under -race.
func TestReleaseCoherentUnderWriters(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newIncrementalServer(t, shards)
			postBatch(t, s, genRecords(4, 60))
			done := make(chan struct{})
			var writers, readers sync.WaitGroup
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					r := rng.New(uint64(200 + w))
					for i := 0; i < 60; i++ {
						if i%4 == 0 {
							postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}, {r.Norm(), r.Norm()}})
						} else if err := s.eng.Add(mat.Vector{r.Norm(), r.Norm()}); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			for rd := 0; rd < 2; rd++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := checkCoherent(s, s.release()); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			writers.Wait()
			close(done)
			readers.Wait()
			if err := checkCoherent(s, s.release()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkCoherent derives every artifact of r and checks that each reports
// r's released groups and records, and that every group summary holds at
// least k records and resolves by id to itself.
func checkCoherent(s *Server, r *release) error {
	groups, records := len(r.Sizes()), r.Condensation().TotalCount()
	ckpt, err := s.checkpoint(r)
	if err != nil {
		return err
	}
	cond, err := core.ReadCondensation(bytes.NewReader(bodyBytes(ckpt)))
	if err != nil {
		return err
	}
	if cond.NumGroups() != groups || cond.TotalCount() != records {
		return fmt.Errorf("generation %d: checkpoint holds %d groups / %d records, release %d / %d",
			r.Generation(), cond.NumGroups(), cond.TotalCount(), groups, records)
	}
	body, err := s.stats(r, true)
	if err != nil {
		return err
	}
	var st statsResponse
	if err := json.Unmarshal(bodyBytes(body), &st); err != nil {
		return err
	}
	shardGroups, shardRecords := 0, 0
	for _, sh := range st.ByShard {
		shardGroups += sh.Groups
		shardRecords += sh.Records
	}
	if st.Groups != groups || st.Records != records || shardGroups != groups || shardRecords != records {
		return fmt.Errorf("generation %d: stats report %d groups / %d records (%d / %d by shard), release %d / %d",
			r.Generation(), st.Groups, st.Records, shardGroups, shardRecords, groups, records)
	}
	rep, err := s.audit(r)
	if err != nil {
		return err
	}
	if rep.Groups != groups || rep.Records != records {
		return fmt.Errorf("generation %d: audit reports %d groups / %d records, release %d / %d",
			r.Generation(), rep.Groups, rep.Records, groups, records)
	}
	infos, infoRecords := r.GroupInfos(nil), 0
	for _, gi := range infos {
		if gi.Size < s.eng.K() {
			return fmt.Errorf("generation %d: group %d of %d records summarized below k", r.Generation(), gi.ID, gi.Size)
		}
		if det, ok := r.GroupByID(gi.ID); !ok || det.GroupInfo != gi {
			return fmt.Errorf("generation %d: group %d resolves to %+v, %v; summary %+v",
				r.Generation(), gi.ID, det.GroupInfo, ok, gi)
		}
		infoRecords += gi.Size
	}
	if len(infos) != groups || infoRecords != records {
		return fmt.Errorf("generation %d: group summaries cover %d groups / %d records, release %d / %d",
			r.Generation(), len(infos), infoRecords, groups, records)
	}
	snap, err := r.snapshot(1, s.cmSnapshot)
	if groups == 0 {
		if !errors.Is(err, errNoRecords) {
			return fmt.Errorf("generation %d: empty release snapshot error %v, want errNoRecords", r.Generation(), err)
		}
		return nil
	}
	if err != nil {
		return err
	}
	var resp snapshotResponse
	if err := json.Unmarshal(bodyBytes(snap), &resp); err != nil {
		return err
	}
	if resp.Groups != groups || len(resp.Records) != records {
		return fmt.Errorf("generation %d: snapshot holds %d groups / %d records, release %d / %d",
			r.Generation(), resp.Groups, len(resp.Records), groups, records)
	}
	return nil
}

// snapshotEntryOf reads r's snapshot entry for seed under r's lock.
func snapshotEntryOf(r *release, seed uint64) *snapshotEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshots[seed]
}

// TestReleaseMinGroupSizeGauge reads condense_release_min_group_size as
// releases are installed: through a pure-stream bootstrap it is 0 while
// nothing is releasable and then the smallest released group, at least
// k; over a static base it is the base's smallest group.
func TestReleaseMinGroupSizeGauge(t *testing.T) {
	const k = 5
	gauge := func(s *Server) float64 { return s.reg.Gauge(MetricReleaseMinGroupSize).Value() }

	s, err := New(Config{Engine: sharded(t, newCondenser(t, k, 3), 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(19)
	postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}})
	if rel := s.release(); rel.Condensation().NumGroups() != 0 || gauge(s) != 0 {
		t.Fatalf("one record: %d groups released, gauge %v; want 0, 0", rel.Condensation().NumGroups(), gauge(s))
	}
	for i := 0; s.release().Condensation().NumGroups() == 0; i++ {
		if i == 100*k {
			t.Fatal("no group was ever released")
		}
		postBatch(t, s, [][]float64{{r.Norm(), r.Norm()}})
	}
	if got, want := gauge(s), s.release().Condensation().MinGroupSize(); got != float64(want) || want < k {
		t.Fatalf("after the first release: gauge %v, smallest released group %d, k %d", got, want, k)
	}

	recs := make([]mat.Vector, 203)
	for i := range recs {
		recs[i] = mat.Vector{r.Norm(), r.Norm()}
	}
	base, err := newCondenser(t, k, 4).Static(recs)
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(Config{Engine: shardedFrom(t, newCondenser(t, k, 4), base, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s.release()
	if got, want := gauge(s), base.MinGroupSize(); got != float64(want) || want < k {
		t.Fatalf("static base: gauge %v, smallest group %d, k %d", got, want, k)
	}
}
