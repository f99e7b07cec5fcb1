package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Error("explicit worker count not honoured")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("defaulted worker count below 1")
	}
}

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 57
		hits := make([]atomic.Int32, n)
		if err := Run(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := Run(20, workers, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Errorf("workers=%d: err = %v, want cell 7's", workers, err)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(0, 8, func(int) error { return errors.New("must not run") }); err != nil {
		t.Error(err)
	}
}

func TestRunChunksPartition(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 64} {
		n := 41
		seen := make([]atomic.Int32, n)
		if err := RunChunks(n, workers, func(lo, hi int) error {
			if lo >= hi {
				return fmt.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, got)
			}
		}
	}
}

func TestRunChunksError(t *testing.T) {
	err := RunChunks(10, 5, func(lo, hi int) error {
		if lo >= 4 {
			return fmt.Errorf("chunk at %d failed", lo)
		}
		return nil
	})
	if err == nil || err.Error() != "chunk at 4 failed" {
		t.Errorf("err = %v, want the lowest chunk's", err)
	}
}

func TestRunProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		var maxDone atomic.Int64
		err := RunProgress(20, workers, func(done int) {
			calls.Add(1)
			for {
				old := maxDone.Load()
				if int64(done) <= old || maxDone.CompareAndSwap(old, int64(done)) {
					break
				}
			}
		}, func(i int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 20 {
			t.Errorf("workers=%d: %d progress calls, want 20", workers, calls.Load())
		}
		if maxDone.Load() != 20 {
			t.Errorf("workers=%d: max done = %d, want 20", workers, maxDone.Load())
		}
	}
}

func TestRunProgressSequentialStopsAtError(t *testing.T) {
	var last int
	err := RunProgress(10, 1, func(done int) { last = done }, func(i int) error {
		if i == 3 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3 failed" {
		t.Errorf("err = %v", err)
	}
	if last != 3 {
		t.Errorf("progress reached %d, want 3 (tasks before the failure)", last)
	}
}

// TestRunChunksAllocs pins that a fan-out allocates the same for any
// worker count, so callers that bound their allocations, like the
// server's body decode, do not allocate more on machines with more cores.
func TestRunChunksAllocs(t *testing.T) {
	var sink [64]int
	fn := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
		return nil
	}
	two := testing.AllocsPerRun(100, func() { _ = RunChunks(len(sink), 2, fn) })
	many := testing.AllocsPerRun(100, func() { _ = RunChunks(len(sink), 16, fn) })
	if two != many || two > 2 {
		t.Errorf("%v allocations at 2 workers, %v at 16, want the same, at most 2", two, many)
	}
}
