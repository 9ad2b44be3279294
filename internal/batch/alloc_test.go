package batch

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

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

// TestBatchAllocations is the wire codec's allocation ratchet over a
// 512-row batch of (int64, int32, date, string) rows, every fourth string
// empty, half the rows selected: encoding allocates its one exact-size
// buffer, appending to a reused buffer nothing, and decoding into a warmed
// batch one string per non-empty string cell.
func TestBatchAllocations(t *testing.T) {
	b := New(4, 512)
	for i := 0; i < 512; i++ {
		s := ""
		if i%4 != 0 {
			s = fmt.Sprintf("key-%d", i)
		}
		b.AppendRow(types.Row{types.Int64(int64(i) << 20), types.Int32(int32(i)), types.Date(int32(19000 + i%30)), types.String(s)})
	}
	sel := make([]int32, 0, 256)
	for i := int32(0); i < 512; i += 2 {
		sel = append(sel, i)
	}
	b.SetSel(sel)
	wire := EncodeBatch(b)
	buf := make([]byte, 0, len(wire))
	into := New(0, 0)

	checkAllocs(t, []allocCase{
		{name: "EncodeBatch: 256 selected rows", runs: 100, allocs: 1, bytes: 5376,
			run: func() error { wire = EncodeBatch(b); return nil }},
		{name: "AppendBatch: 256 selected rows into a reused buffer", runs: 100, allocs: 0, bytes: 0,
			run: func() error { buf = AppendBatch(buf[:0], b); return nil }},
		{name: "DecodeBatch: 256 rows into a warmed batch", runs: 100, allocs: 128, bytes: 1024,
			run: func() error { return DecodeBatch(wire, into) }},
	})
	if into.Len() != 256 {
		t.Fatalf("decoded %d rows, want 256", into.Len())
	}
}
