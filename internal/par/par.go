// Package par is the deterministic fan-out primitive behind the parallel
// evaluation engine: run n independent, index-addressed tasks on a bounded
// worker pool.
//
// Determinism is a two-sided contract. The caller guarantees that task i
// writes only to slot i of its output storage and draws randomness only
// from a stream pre-derived for that index, so the results are identical
// for every worker count. The package guarantees that the error returned
// is the one a sequential loop would have surfaced: the failure with the
// lowest index.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to an effective worker count:
// values < 1 mean runtime.NumCPU().
func Workers(p int) int {
	if p < 1 {
		return runtime.NumCPU()
	}
	return p
}

// Run executes fn(0), ..., fn(n-1) on at most workers goroutines, handing
// out indices dynamically so heterogeneous task costs balance. With
// workers <= 1 it degenerates to the plain sequential loop (stopping at
// the first error); otherwise every task runs and the lowest-index error
// is returned, which is the same error the sequential loop reports.
func Run(n, workers int, fn func(i int) error) error {
	return RunProgress(n, workers, nil, fn)
}

// RunProgress is Run with a completion callback: after each task returns,
// progress is invoked with the cumulative number of completed tasks (in
// completion order, not index order). The callback runs on the worker
// goroutines, so it must be safe for concurrent use and cheap — it sits
// between tasks. A nil progress is Run exactly. Progress observation
// never changes which tasks run or what they compute; it exists so long
// fan-outs (experiment grids) can report structured progress instead of
// running silent.
func RunProgress(n, workers int, progress func(done int), fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
			if progress != nil {
				progress(i + 1)
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next, done atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
				if progress != nil {
					progress(int(done.Add(1)))
				}
			}
		}()
	}
	wg.Wait()
	return first(errs)
}

// RunChunks splits [0, n) into at most workers contiguous chunks and runs
// fn(lo, hi) for each on its own goroutine — for sweeps whose per-item
// cost is too small to schedule individually and whose workers carry
// per-chunk scratch state. With workers <= 1 it is fn(0, n). A call
// allocates the same two objects for any worker count.
func RunChunks(n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	s := &chunkState{failed: chunks}
	// One closure for every goroutine, each taking the next chunk: a go
	// statement with arguments would allocate once per goroutine. The
	// caller only waits: a goroutine it started while running would sit in
	// its processor's next-to-run slot, which an idle processor steals
	// from only after a pause.
	work := func() {
		defer s.wg.Done()
		c := int(s.next.Add(1)) - 1
		lo := c * chunk
		if err := fn(lo, min(lo+chunk, n)); err != nil {
			s.mu.Lock()
			if c < s.failed {
				s.failed, s.err = c, err
			}
			s.mu.Unlock()
		}
	}
	s.wg.Add(chunks)
	for range chunks {
		go work()
	}
	s.wg.Wait()
	return s.err
}

// chunkState is what one RunChunks call's goroutines share.
type chunkState struct {
	next   atomic.Int64 // chunks taken so far
	wg     sync.WaitGroup
	mu     sync.Mutex
	failed int   // the lowest failed chunk, or the chunk count if none
	err    error // that chunk's error
}

// first returns the lowest-index non-nil error.
func first(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
