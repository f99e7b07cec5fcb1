package core

import (
	"context"
	"fmt"

	"condensation/internal/mat"
)

// lockedAddBatch runs addBatch under the shard's write lock, released by
// defer so a panic cannot leave the shard locked.
func (sh *shard) lockedAddBatch(ctx context.Context, records []mat.Vector) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.addBatch(ctx, records)
}

// addBatch applies a shard's (already validated, non-empty) records in
// input order, each through add's body, so the result is an Add loop's by
// construction. The batch records one dynamic.add_batch span, the parent
// of its split spans. Cancellation is polled before each record; records
// applied before cancellation stay condensed.
func (sh *shard) addBatch(ctx context.Context, records []mat.Vector) error {
	_, sp := sh.tr.Start(ctx, "dynamic.add_batch")
	sp.SetAttrInt("records", len(records))
	defer sp.End()
	for i, x := range records {
		if err := cancelled(ctx); err != nil {
			return fmt.Errorf("core: batch cancelled at record %d: %w", i, err)
		}
		if _, err := sh.place(x, sp); err != nil {
			return fmt.Errorf("core: batch record %d: %w", i, err)
		}
	}
	return nil
}

// cancelled returns ctx's error once ctx is done, and nil before. It
// polls Done without blocking rather than calling Err, which takes a
// mutex on a cancelable context: the apply loop checks once per record.
func cancelled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
