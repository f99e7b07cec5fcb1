package telemetry

import (
	"slices"
	"time"
)

// Journal event types: the release and serving-layer moments worth
// explaining after the fact. Each names the state change that produced it,
// not the code path — the journal is the narrative the audit and watchdog
// numbers lack.
const (
	// EventGroupReleased marks a group id new to an installed release: a
	// group that reached k records, or a split child (paper §3.2).
	EventGroupReleased = "group_released"
	// EventGroupRetired marks a group id an installed release no longer
	// holds: the parent of a split.
	EventGroupRetired = "group_retired"
	// EventReleaseReplaced marks the server installing a new release in
	// place of one that had served read artifacts, which are dropped with
	// it.
	EventReleaseReplaced = "release_replaced"
	// EventWatchdogTransition marks a health rule changing state.
	EventWatchdogTransition = "watchdog_transition"
)

// JournalShardNone is the Shard stamp of events that are not tied to one
// engine shard (release replacement, watchdog).
const JournalShardNone = -1

// JournalEvent is one recorded lifecycle event. Seq and Time are stamped
// by Record; everything else is the emitter's.
type JournalEvent struct {
	// Seq is the journal-wide sequence number, monotone from 1 — the
	// cursor clients page with even after ring wraparound.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock record time.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Shard is the engine shard holding the event's group, or
	// JournalShardNone for events not tied to one shard.
	Shard int `json:"shard"`
	// Generation is the generation of the release the event is tied to,
	// so journal entries line up with checkpoint ETags.
	Generation uint64 `json:"generation"`
	// Group is the stable id of the group the event concerns, when any.
	Group uint64 `json:"group,omitempty"`
	// Parent is the split parent a released group was born from, when any.
	Parent uint64 `json:"parent,omitempty"`
	// Detail is a human-readable one-liner explaining the event.
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded ring of lifecycle events, the structured sibling of
// the Tracer: nil-safe (a nil *Journal no-ops every method, so a disabled
// journal costs one nil check per emission site), observe-only (nothing it
// records feeds back into condensation), and bounded (the ring keeps the
// most recent Capacity events; older ones are overwritten, never grown).
// Unlike the sampled tracer it records every event offered — lifecycle
// events are rare (one per group id a release adds or drops, plus
// transitions), so completeness is affordable and is what makes the
// ledger replayable.
type Journal struct {
	events *ring[JournalEvent]
}

// defaultJournalCapacity bounds the ring when NewJournal is given a
// non-positive capacity.
const defaultJournalCapacity = 4096

// NewJournal returns a journal holding up to capacity events (capacity ≤ 0
// means the default 4096).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalCapacity
	}
	return &Journal{events: newRing[JournalEvent](capacity)}
}

// Record stamps ev with the next sequence number and the current time and
// commits it, overwriting the oldest event when the ring is full. Safe for
// concurrent callers; a nil journal discards the event.
func (j *Journal) Record(ev JournalEvent) {
	if j == nil {
		return
	}
	j.events.push(ev, func(ev JournalEvent, seq uint64) JournalEvent {
		ev.Seq = seq
		ev.Time = time.Now()
		return ev
	})
}

// Events returns up to last of the most recent buffered events in record
// order (oldest first). last ≤ 0 returns everything buffered. With types
// given, only events of those types count toward last — "the N most recent
// retirements", not "the retirements among the N most recent events". The
// returned slice is a copy and safe to retain.
func (j *Journal) Events(last int, types ...string) []JournalEvent {
	if j == nil {
		return nil
	}
	var keep func(JournalEvent) bool
	if len(types) > 0 {
		keep = func(ev JournalEvent) bool { return slices.Contains(types, ev.Type) }
	}
	return j.events.last(last, keep)
}

// Len returns the number of events currently buffered.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	n, _ := j.events.counts()
	return n
}

// Seq returns the number of events ever recorded — the Seq stamp of the
// newest event.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	_, total := j.events.counts()
	return total
}

// Dropped returns the number of events overwritten by newer ones.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	n, total := j.events.counts()
	return total - uint64(n)
}

// Capacity returns the ring capacity (0 for a nil journal).
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return j.events.capacity()
}
