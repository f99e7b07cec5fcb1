package telemetry

import (
	"slices"
	"sync"
	"testing"
)

func TestRing(t *testing.T) {
	r := newRing[int](3)
	for i := 1; i <= 7; i++ {
		r.push(i, nil)
	}
	if held, total := r.counts(); held != 3 || total != 7 {
		t.Fatalf("counts = (%d, %d), want (3, 7): 4 dropped", held, total)
	}
	odd := func(v int) bool { return v%2 == 1 }
	for _, tc := range []struct {
		n    int
		keep func(int) bool
		want []int
	}{
		{0, nil, []int{5, 6, 7}},
		{2, nil, []int{6, 7}},
		{9, nil, []int{5, 6, 7}},
		{1, odd, []int{7}},
		{2, odd, []int{5, 7}}, // matches count toward n: 6 is skipped, not counted
		{0, func(int) bool { return false }, nil},
	} {
		if got := r.last(tc.n, tc.keep); !slices.Equal(got, tc.want) {
			t.Errorf("last(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := r.push(0, func(_ int, seq uint64) int { return int(seq) }); got != 8 {
		t.Errorf("stamp saw sequence %d, want 8", got)
	}
}

// TestRingConcurrentPush pushes and reads from several goroutines (run it
// under -race): every push is counted once, and the ring holds the newest
// capacity of them in stamp order.
func TestRingConcurrentPush(t *testing.T) {
	const workers, each, capacity = 8, 500, 64
	r := newRing[uint64](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.push(0, func(_ uint64, seq uint64) uint64 { return seq })
				r.last(4, nil)
			}
		}()
	}
	wg.Wait()
	want := make([]uint64, capacity)
	for i := range want {
		want[i] = workers*each - capacity + 1 + uint64(i)
	}
	if got := r.last(0, nil); !slices.Equal(got, want) {
		held, total := r.counts()
		t.Fatalf("held %d of %d pushes: %v", held, total, got)
	}
}
