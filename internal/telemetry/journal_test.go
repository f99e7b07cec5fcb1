package telemetry

import (
	"fmt"
	"testing"
)

func TestJournalRecordAndOrder(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Record(JournalEvent{Type: EventGroupReleased, Shard: i, Generation: uint64(i + 1)})
	}
	if j.Len() != 5 || j.Seq() != 5 || j.Dropped() != 0 {
		t.Fatalf("len=%d seq=%d dropped=%d, want 5/5/0", j.Len(), j.Seq(), j.Dropped())
	}
	events := j.Events(0)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (oldest first)", i, e.Seq, i+1)
		}
		if e.Shard != i {
			t.Fatalf("event %d has shard %d, want %d", i, e.Shard, i)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 10; i++ {
		j.Record(JournalEvent{Type: EventGroupRetired, Generation: uint64(i)})
	}
	if j.Len() != 4 {
		t.Fatalf("len=%d, want capacity 4", j.Len())
	}
	if j.Seq() != 10 {
		t.Fatalf("seq=%d, want 10", j.Seq())
	}
	if j.Dropped() != 6 {
		t.Fatalf("dropped=%d, want 6", j.Dropped())
	}
	events := j.Events(0)
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (only the newest 4 survive)", i, e.Seq, want)
		}
	}
}

func TestJournalLastBound(t *testing.T) {
	j := NewJournal(16)
	for i := 1; i <= 9; i++ {
		j.Record(JournalEvent{Type: EventReleaseReplaced})
	}
	got := j.Events(3)
	if len(got) != 3 {
		t.Fatalf("Events(3) returned %d events", len(got))
	}
	if got[0].Seq != 7 || got[2].Seq != 9 {
		t.Fatalf("Events(3) seqs = %d..%d, want 7..9", got[0].Seq, got[2].Seq)
	}
	if n := len(j.Events(100)); n != 9 {
		t.Fatalf("Events(100) returned %d events, want all 9", n)
	}
}

func TestJournalTypeFilter(t *testing.T) {
	j := NewJournal(32)
	kinds := []string{EventGroupReleased, EventGroupRetired, EventGroupReleased, EventReleaseReplaced, EventGroupRetired}
	for _, k := range kinds {
		j.Record(JournalEvent{Type: k})
	}
	retired := j.Events(0, EventGroupRetired)
	if len(retired) != 2 {
		t.Fatalf("got %d group_retired events, want 2", len(retired))
	}
	for _, e := range retired {
		if e.Type != EventGroupRetired {
			t.Fatalf("filtered result has type %q", e.Type)
		}
	}
	// last=N with a filter means "the N most recent OF those types",
	// still reported oldest first.
	one := j.Events(1, EventGroupReleased)
	if len(one) != 1 || one[0].Seq != 3 {
		t.Fatalf("Events(1, group_released) = %+v, want the seq-3 event", one)
	}
	both := j.Events(0, EventGroupRetired, EventReleaseReplaced)
	if len(both) != 3 {
		t.Fatalf("two-type filter returned %d events, want 3", len(both))
	}
	for i := 1; i < len(both); i++ {
		if both[i].Seq <= both[i-1].Seq {
			t.Fatalf("filtered events out of order: %d after %d", both[i].Seq, both[i-1].Seq)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(JournalEvent{Type: EventGroupRetired}) // must not panic
	if j.Events(0) != nil {
		t.Fatal("nil journal returned events")
	}
	if j.Len() != 0 || j.Seq() != 0 || j.Dropped() != 0 || j.Capacity() != 0 {
		t.Fatal("nil journal reported non-zero state")
	}
}

func TestJournalDefaultCapacity(t *testing.T) {
	j := NewJournal(0)
	if j.Capacity() != defaultJournalCapacity {
		t.Fatalf("NewJournal(0) capacity = %d, want default %d", j.Capacity(), defaultJournalCapacity)
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j := NewJournal(64)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				j.Record(JournalEvent{Type: EventGroupReleased, Shard: g})
				j.Events(5)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if j.Seq() != 400 {
		t.Fatalf("seq=%d after 400 concurrent records", j.Seq())
	}
	// Sequence numbers in the surviving window must be unique and dense.
	events := j.Events(0)
	seen := make(map[uint64]bool, len(events))
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestWatchdogJournalTransitions(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("boom_min")
	wd := NewWatchdog(reg, nil,
		GaugeFloorRule("boom", "boom_min", 5, "test rule"))
	j := NewJournal(16)
	gen := uint64(7)
	wd.SetJournal(j, func() uint64 { return gen })

	rec := NewRecorder(reg, 8)
	rec.Scrape()
	wd.Evaluate(rec) // ok, no transition
	if j.Len() != 0 {
		t.Fatalf("healthy evaluate recorded %d events", j.Len())
	}
	g.Set(3)
	rec.Scrape()
	wd.Evaluate(rec) // ok -> failing
	events := j.Events(0, EventWatchdogTransition)
	if len(events) != 1 {
		t.Fatalf("got %d transition events, want 1: %+v", len(events), j.Events(0))
	}
	e := events[0]
	if e.Generation != 7 {
		t.Fatalf("transition event generation = %d, want 7", e.Generation)
	}
	if e.Shard != JournalShardNone {
		t.Fatalf("transition event shard = %d, want %d", e.Shard, JournalShardNone)
	}
	if e.Detail == "" {
		t.Fatal("transition event has no detail")
	}
}

func TestJournalEventDetailFormatting(t *testing.T) {
	// Guard the Detail contract: it is free text, but events must carry
	// their structured identity in fields, not only in Detail.
	j := NewJournal(4)
	j.Record(JournalEvent{
		Type: EventGroupReleased, Shard: 2, Generation: 41,
		Group: 12, Parent: 9,
		Detail: fmt.Sprintf("split child of group %d", 9),
	})
	e := j.Events(0)[0]
	if e.Group != 12 || e.Parent != 9 || e.Shard != 2 || e.Generation != 41 {
		t.Fatalf("lineage fields not preserved: %+v", e)
	}
}
