package condensation

import (
	"fmt"
	"testing"

	"condensation/internal/core"
)

// BenchmarkShardedIngest measures the sharded engine's steady-state batch
// ingest at 1, 2, 4, and 8 shards against the same pinned-G protocol as
// BenchmarkDynamicAddAll (PR 4's BENCH_PR4 baseline): correlated rank-3
// factor stream, k = 25, G = 800 total groups held pinned by off-the-clock
// re-seeds, 1024-record batches, ns/op per record. Each shard routes and
// applies its slice of a batch concurrently under its own lock, so on an
// N-core runner throughput scales with min(shards, cores); all shard
// counts produce valid condensations (per-shard k ≤ n ≤ 2k−1), and each
// shard count is individually reproducible bit for bit
// (TestShardedMergedSnapshotDeterministic).
func BenchmarkShardedIngest(b *testing.B) {
	const dim, k, batchSize = 8, 25, 1024
	const G = 800
	full := benchStreamCorr(14, G*k+1<<16, dim)
	pool := full[G*k:]
	base := benchBase(b, full, G, k)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("corr/G=%d/shards=%d", G, shards), func(b *testing.B) {
			c, err := core.NewCondenser(k, core.WithSeed(13))
			if err != nil {
				b.Fatal(err)
			}
			fresh := func() *core.Dynamic {
				s, err := c.ShardedFrom(base, shards)
				if err != nil {
					b.Fatal(err)
				}
				return s
			}
			eng := fresh()
			fed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				if fed >= benchResetEvery {
					b.StopTimer()
					eng = fresh()
					fed = 0
					b.StartTimer()
				}
				n := batchSize
				if b.N-done < n {
					n = b.N - done
				}
				lo := done % (len(pool) - batchSize)
				if err := eng.AddBatch(pool[lo : lo+n]); err != nil {
					b.Fatal(err)
				}
				done += n
				fed += n
			}
		})
	}
}
