package format

import (
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

// collectBatchScan drains a batch scan into materialized rows, checking the
// pool ownership contract along the way.
func collectBatchScan(t *testing.T, scan func(pool *batch.Pool, yield func(*batch.Batch) error) (ScanStats, error), ncols, batchRows int) ([]types.Row, int64, ScanStats) {
	t.Helper()
	pool := batch.NewPool(ncols, batchRows)
	var rows []types.Row
	var physical int64
	stats, err := scan(pool, func(b *batch.Batch) error {
		if b.Size() > batchRows {
			t.Fatalf("batch overflows capacity: %d > %d", b.Size(), batchRows)
		}
		physical += int64(b.Size())
		rows = append(rows, b.Rows()...)
		pool.Put(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, physical, stats
}

func sameRows(t *testing.T, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if !types.Equal(got[i][c], want[i][c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestScanHWCBatchesMatchesRowScan: same rows, same order, identical
// ScanStats as the row-at-a-time scanner — across projections and batch
// sizes that do and don't divide the group size.
func TestScanHWCBatchesMatchesRowScan(t *testing.T) {
	rows := genRows(1000)
	data := writeHWC(t, rows, 128)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		proj      []int
		batchRows int
	}{
		{"full-64", nil, 64},
		{"full-100", nil, 100}, // does not divide 128
		{"proj-512", []int{3, 0}, 512},
		{"proj-1", []int{1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wantRows []types.Row
			wantStats, err := ScanHWC(BytesSource(data), meta, allGroups(meta), tc.proj, nil, true, func(r types.Row) error {
				wantRows = append(wantRows, r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			ncols := len(tc.proj)
			if tc.proj == nil {
				ncols = meta.Schema.Len()
			}
			got, physical, gotStats := collectBatchScan(t, func(pool *batch.Pool, yield func(*batch.Batch) error) (ScanStats, error) {
				return ScanHWCBatches(BytesSource(data), meta, allGroups(meta), tc.proj, nil, true, pool, yield)
			}, ncols, tc.batchRows)
			if gotStats != wantStats {
				t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
			}
			if physical != wantStats.RowsRead {
				t.Fatalf("physical rows %d, want %d", physical, wantStats.RowsRead)
			}
			sameRows(t, got, wantRows)
		})
	}
}

// TestScanHWCBatchesPrunerNarrowsSelection: group-level pruning matches the
// row scanner (identical stats), and the surviving batches carry a selection
// pre-narrowed by the same ranges — with physical counts untouched.
func TestScanHWCBatchesPrunerNarrowsSelection(t *testing.T) {
	rows := genRows(1000)
	data := writeHWC(t, rows, 128)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	// joinKey is column 0 and rises monotonically, so [300, 449] prunes most
	// groups outright and straddles two group boundaries.
	pruner := &Pruner{Ranges: []IntRange{{Col: 0, Lo: 300, Hi: 449}}}

	var wantRows []types.Row
	wantStats, err := ScanHWC(BytesSource(data), meta, allGroups(meta), nil, pruner, true, func(r types.Row) error {
		wantRows = append(wantRows, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pool := batch.NewPool(meta.Schema.Len(), 64)
	var selected []types.Row
	var physical int64
	gotStats, err := ScanHWCBatches(BytesSource(data), meta, allGroups(meta), nil, pruner, true, pool, func(b *batch.Batch) error {
		physical += int64(b.Size())
		selected = append(selected, b.Rows()...)
		pool.Put(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
	}
	if physical != wantStats.RowsRead {
		t.Fatalf("physical rows %d, want RowsRead %d", physical, wantStats.RowsRead)
	}
	// The selection keeps exactly the in-range subset of what the row scan
	// yielded, in order.
	var inRange []types.Row
	for _, r := range wantRows {
		if r[0].I >= 300 && r[0].I <= 449 {
			inRange = append(inRange, r)
		}
	}
	sameRows(t, selected, inRange)
}

// TestScanTextBatchesMatchesRowScan: the rows the writer was given, split
// by the Hadoop line-ownership rule and projected, and the ScanStats the
// row-at-a-time ScanText reported for the same splits before it was deleted.
func TestScanTextBatchesMatchesRowScan(t *testing.T) {
	rows := genRows(333)
	data := writeTextRows(t, rows)
	mid := int64(len(data) / 2) // inside row 168, which the first split owns
	project := func(rows []types.Row, proj []int) []types.Row {
		out := make([]types.Row, len(rows))
		for i, r := range rows {
			for _, c := range proj {
				out[i] = append(out[i], r[c])
			}
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		start, end int64
		proj       []int
		want       []types.Row
		stats      ScanStats
	}{
		{"whole", 0, int64(len(data)), nil, rows, ScanStats{BytesRead: 10839, RowsRead: 333}},
		{"first-split", 0, mid, nil, rows[:169], ScanStats{BytesRead: 5675, RowsRead: 169}},
		{"second-split", mid, int64(len(data)), nil, rows[169:], ScanStats{BytesRead: 5420, RowsRead: 164}},
		{"projected", 0, int64(len(data)), []int{3, 1}, project(rows, []int{3, 1}), ScanStats{BytesRead: 10839, RowsRead: 333}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ncols := len(tc.proj)
			if tc.proj == nil {
				ncols = logSchema().Len()
			}
			got, _, gotStats := collectBatchScan(t, func(pool *batch.Pool, yield func(*batch.Batch) error) (ScanStats, error) {
				return ScanTextBatches(BytesSource(data), logSchema(), tc.start, tc.end, tc.proj, pool, yield)
			}, ncols, 50)
			if gotStats != tc.stats {
				t.Fatalf("stats %+v, want %+v", gotStats, tc.stats)
			}
			sameRows(t, got, tc.want)
		})
	}
}
