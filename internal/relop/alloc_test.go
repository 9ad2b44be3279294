package relop

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

// allocCase is one row of an allocation ratchet: what one call of run
// allocates, bounded at the counts measured when the bound was committed.
type allocCase struct {
	name          string
	runs          int // measured calls, after one warm-up call
	run           func() error
	allocs, bytes uint64 // committed bounds per call
}

// checkAllocs fails a case that allocates more per call than its bound. A
// case under its bound passes with a note to lower the bound: a change that
// saves an allocation commits the saving.
func checkAllocs(t *testing.T, cases []allocCase) {
	t.Helper()
	for _, c := range cases {
		allocs, bytes := measureAllocs(t, c.name, c.runs, c.run)
		switch {
		case allocs > c.allocs || bytes > c.bytes:
			t.Errorf("%s: %d allocations, %d B per call, over its bound of %d, %d B", c.name, allocs, bytes, c.allocs, c.bytes)
		case allocs < c.allocs || bytes < c.bytes:
			t.Logf("%s: %d allocations, %d B per call, under its bound of %d, %d B: lower the bound", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// measureAllocs is testing.AllocsPerRun with bytes as well: the mean
// allocations and bytes of runs calls of run after one warm-up call, on one
// P with the collector off, so that a count is the same on every run. A
// -race build skips the test: its sync.Pool drops items at random.
func measureAllocs(t *testing.T, name string, runs int, run func() error) (allocs, bytes uint64) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts move under the race detector")
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer runtime.GC() // the calls' garbage piles up uncollected
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// keyedBatches returns rows/512 batches of 512 rows (key, int32, date),
// key i for row i modulo keys.
func keyedBatches(rows, keys int) []*batch.Batch {
	bs := make([]*batch.Batch, rows/512)
	for i := range bs {
		b := batch.New(3, 512)
		for j := 0; j < 512; j++ {
			k := int64((i*512 + j) % keys)
			b.AppendRow(types.Row{types.Int64(k), types.Int32(int32(k)), types.Date(int32(k))})
		}
		bs[i] = b
	}
	return bs
}

// TestRelopAllocations is relop's allocation ratchet: the flat radix
// build/probe layout and the batch aggregate allocate per partition, per
// table or per group, never per row.
func TestRelopAllocations(t *testing.T) {
	build := keyedBatches(1<<15, 1<<15)
	one := build[0]

	sealed := NewHashTable(0, 4)
	for _, b := range keyedBatches(4096, 2048) {
		if err := sealed.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	sealed.Build()
	probe := keyedBatches(512, 4096)[0] // keys 0..511: every one hits twice
	discard := func(types.Row, []types.Row, []int64) error { return nil }
	wire := []int{2, 0}

	budgeted, err := NewSpillingHashTable(0, 1<<40, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer budgeted.Close()

	groupBy, aggs := aggFixture()
	agg := NewHashAgg(groupBy, aggs)
	aggIn := batch.New(2, 512)
	for i := 0; i < 512; i++ {
		aggIn.AppendRow(types.Row{types.Int32(int32(i % 16)), types.Int64(int64(i))})
	}

	checkAllocs(t, []allocCase{
		{name: "InsertBatch: 512 rows into a new 4-partition table", runs: 100, allocs: 11, bytes: 53968,
			run: func() error { return NewHashTable(0, 4).InsertBatch(one) }},
		// The sealed table holds one copy of its rows: 279 B per three-column
		// row of distinct keys (96 staged, 96 in the arena, 24 per grouped row
		// header, ~60 of slot table). Staging row by row into growing
		// per-partition slices costs ~296 without an arena; keeping that
		// staging beside the arena costs ~390.
		{name: "InsertBatch x64 + Build: 32768 rows, 4 partitions", runs: 3, allocs: 372, bytes: 9149376,
			run: func() error {
				h := NewHashTable(0, 4)
				for _, b := range build {
					if err := h.InsertBatch(b); err != nil {
						return err
					}
				}
				h.Build()
				return nil
			}},
		{name: "ProbeBuckets: 512 rows, every one a hit", runs: 100, allocs: 1, bytes: 96,
			run: func() error { return sealed.ProbeBuckets(probe, 0, nil, discard) }},
		{name: "ProbeBuckets: 512 rows through a wire projection", runs: 100, allocs: 2, bytes: 96,
			run: func() error { return sealed.ProbeBuckets(probe, 0, wire, discard) }},
		{name: "budgeted InsertBatch: 512 rows, ample budget", runs: 50, allocs: 18, bytes: 54533,
			run: func() error { return budgeted.InsertBatch(one) }},
		{name: "HashAgg.AddBatch: 512 rows into 16 existing groups", runs: 100, allocs: 0, bytes: 0,
			run: func() error { return agg.AddBatch(aggIn) }},
	})
	if budgeted.Evictions != 0 {
		t.Errorf("an ample budget evicted %d partitions", budgeted.Evictions)
	}
}
