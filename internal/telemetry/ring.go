package telemetry

import (
	"slices"
	"sync"
)

// ring is the bounded store behind every telemetry stream: trace spans,
// journal events and flight-recorder windows. It holds at most its
// capacity of entries under one mutex; a push into a full ring overwrites
// the oldest entry, never grows the buffer, and counts it as dropped.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64 // entries ever pushed; entry i (from 1) sits in buf[(i−1) mod cap]
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

// push stores v. A non-nil stamp runs under the lock first and receives
// v's sequence number (1 for the first push), so stamps are monotone in
// ring order. push returns the value stored.
func (r *ring[T]) push(v T, stamp func(T, uint64) T) T {
	r.mu.Lock()
	r.total++
	if stamp != nil {
		v = stamp(v, r.total)
	}
	r.buf[(r.total-1)%uint64(len(r.buf))] = v
	r.mu.Unlock()
	return v
}

// last returns up to n of the newest entries that keep accepts (every
// entry when keep is nil), oldest first; n ≤ 0 means all of them. The scan
// runs newest first, so only accepted entries count toward n: "the n most
// recent splits", not "the splits among the n most recent events".
func (r *ring[T]) last(n int, keep func(T) bool) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.held()
	if n <= 0 || n > held {
		n = held
	}
	var out []T
	if keep == nil {
		out = make([]T, 0, n)
	}
	for i := uint64(0); i < uint64(held) && len(out) < n; i++ {
		v := r.buf[(r.total-1-i)%uint64(len(r.buf))]
		if keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	slices.Reverse(out)
	return out
}

// counts returns the number of entries held and the number ever pushed;
// the difference is the number overwritten.
func (r *ring[T]) counts() (held int, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held(), r.total
}

func (r *ring[T]) held() int { return int(min(r.total, uint64(len(r.buf)))) }

func (r *ring[T]) capacity() int { return len(r.buf) }
