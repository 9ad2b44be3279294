package format

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hybridwh/internal/batch"
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

// TestFormatAllocations is the HWC scan's allocation ratchet: four row
// groups of every kind, scanned into a warmed pool of 512-row batches. A
// scan allocates per call and per column (its cursors and their decompress
// buffers) and per decoded non-empty string, never per chunk or per batch.
func TestFormatAllocations(t *testing.T) {
	data := writeHWCSchema(t, kindSchema(), kindRows(4096), 1024)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	groups := allGroups(meta)
	scan := func(proj []int, pruner *Pruner, filter *Filter) func() error {
		width := len(proj)
		if proj == nil {
			width = meta.Schema.Len()
		}
		pool := batch.NewPool(width, 512)
		return func() error {
			_, err := ScanHWCFiltered(BytesSource(data), meta, groups, proj, pruner, true, filter, pool, func(b *batch.Batch) error {
				pool.Put(b)
				return nil
			})
			return err
		}
	}
	// The jen scan's shape: a projection, a pruner range that refutes two of
	// the four groups and narrows a third, and a filter on an early column
	// keeping one row in eight; the string column is late.
	proj := []int{0, 2, 4, 5}
	pruner := &Pruner{Ranges: []IntRange{{Col: 0, Lo: 0, Hi: 1500}}}
	oneIn8 := keepIf([]int{1}, func(b *batch.Batch, i int) bool { return b.Col(1)[i].I%8 == 0 })

	checkAllocs(t, []allocCase{
		{name: "ScanHWCBatches: 4 groups x 7 columns, every cell", runs: 20, allocs: 3084, bytes: 34488,
			run: scan(nil, nil, nil)},
		{name: "ScanHWCFiltered: 4 columns, pruned to 2 groups, 1 row in 8 late", runs: 20, allocs: 109, bytes: 17036,
			run: scan(proj, pruner, oneIn8)},
	})
}
