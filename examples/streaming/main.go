// Streaming: the dynamic setting of Section 3 of the paper. An initial
// database is condensed statically; records then arrive one at a time and
// are folded into the nearest group's statistics, with groups splitting
// along their principal eigenvector whenever they reach 2k records. The
// example prints periodic snapshots showing the group population growing
// while every group stays within [k, 2k), then reads the group sizes of
// the final Release — the k-gated cut every served artifact derives from.
package main

import (
	"fmt"
	"log"
	"slices"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/rng"
	"condensation/internal/stream"
)

func main() {
	const k = 25
	r := rng.New(11)

	// Synthetic Abalone stands in for a measurement stream; the first 500
	// records form the initial database, the rest arrive incrementally.
	ds := datagen.Abalone(11)
	initial := ds.X[:500]
	arriving := stream.Shuffled(ds.X[500:], r.Split())

	condenser, err := core.NewCondenser(k, core.WithRandomSource(r.Split()))
	if err != nil {
		log.Fatal(err)
	}
	base, err := condenser.Static(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial database: %d records in %d groups\n", base.TotalCount(), base.NumGroups())

	dyn, err := condenser.DynamicFrom(base)
	if err != nil {
		log.Fatal(err)
	}
	driver, err := stream.NewDriver(dyn)
	if err != nil {
		log.Fatal(err)
	}
	driver.SnapshotEvery = 1000
	if err := driver.Feed(arriving); err != nil {
		log.Fatal(err)
	}

	for _, snap := range driver.Snapshots() {
		fmt.Printf("after %5d stream records: %4d groups, avg size %.1f\n",
			snap.Seen, snap.Groups, snap.AvgGroupSize)
	}

	// Release the end state: NewRelease withholds any group below k, so
	// nothing withheld and a largest group below 2k (the split threshold)
	// mean every group held between k and 2k−1 records.
	final := driver.Condensation()
	rel := core.NewRelease(dyn.Generation(), final, dyn.NumShards())
	sizes := rel.Sizes()
	withheld, _ := rel.Withheld()
	fmt.Printf("final: %d groups over %d records, sizes in [%d, %d], groups withheld below k: %d\n",
		len(sizes), final.TotalCount(), slices.Min(sizes), slices.Max(sizes), withheld)

	// The stream never stored a raw record beyond the statistics — yet we
	// can synthesize a full anonymized data set at any time.
	anonymized, err := final.Synthesize(r.Split())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %d anonymized records from retained statistics only\n", len(anonymized))
}
