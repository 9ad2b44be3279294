package format

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/compress"
	"hybridwh/internal/types"
)

// kindSchema has one column of every kind the format stores.
func kindSchema() types.Schema {
	return types.NewSchema(
		types.C("i32", types.KindInt32),
		types.C("i64", types.KindInt64),
		types.C("day", types.KindDate),
		types.C("tod", types.KindTime),
		types.C("s", types.KindString),
		types.C("f", types.KindFloat64),
		types.C("b", types.KindBool),
	)
}

// kindRows covers negative and wide integers, empty strings, negative and
// fractional floats, and both booleans.
func kindRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		s := ""
		if i%4 != 0 {
			s = fmt.Sprintf("v%d", i%13)
		}
		rows[i] = types.Row{
			types.Int32(int32(i)),
			types.Int64(int64(i-n/2) * 1_000_000_007),
			types.Date(int32(16000 + i%30)),
			types.TimeOfDay(int32(i * 37 % 86400)),
			types.String(s),
			types.Float64(float64(i-100) / 3),
			types.Bool(i%3 == 0),
		}
	}
	return rows
}

// keepIf is a Filter reading the early columns through keep.
func keepIf(early []int, keep func(b *batch.Batch, i int) bool) *Filter {
	return &Filter{Early: early, Apply: func(b *batch.Batch) error {
		b.Filter(func(i int) bool { return keep(b, i) })
		return nil
	}}
}

// scanSelected runs ScanHWCFiltered over every group and returns the
// selected rows and the physical row count, failing t if a late cell of an
// unselected row holds anything but the zero Value.
func scanSelected(t testing.TB, data []byte, meta *HWCMeta, proj []int, pruner *Pruner, filter *Filter, batchRows int) ([]types.Row, int64, ScanStats, error) {
	layout := proj
	if proj == nil {
		layout = make([]int, meta.Schema.Len())
		for c := range layout {
			layout[c] = c
		}
	}
	width := len(layout)
	early := make([]bool, width)
	if filter != nil {
		for _, pi := range filter.Early {
			early[pi] = true
		}
	}
	for _, r := range projectRanges(pruner, layout, meta.Schema) {
		early[r.pos] = true
	}
	pool := batch.NewPool(width, batchRows)
	var rows []types.Row
	var physical int64
	stats, err := ScanHWCFiltered(BytesSource(data), meta, allGroups(meta), proj, pruner, true, filter, pool, func(b *batch.Batch) error {
		physical += int64(b.Size())
		rows = append(rows, b.Rows()...)
		if filter != nil {
			live := make([]bool, b.Size())
			_ = b.Each(func(i int) error { live[i] = true; return nil })
			for j := 0; j < width; j++ {
				for i, v := range b.Col(j) {
					if !early[j] && !live[i] && v != (types.Value{}) {
						t.Errorf("late cell (%d, %d) of an unselected row holds %v", i, j, v)
					}
				}
			}
		}
		pool.Put(b)
		return nil
	})
	return rows, physical, stats, err
}

// TestLateMaterialisationIsExact: a filtered scan selects exactly the rows a
// full decode followed by the same filter selects, with the same stats and
// physical rows, for every kind, batch size and filter shape, with pruner
// ranges on and off.
func TestLateMaterialisationIsExact(t *testing.T) {
	data := writeHWCSchema(t, kindSchema(), kindRows(700), 128)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	type fcase struct {
		name   string
		proj   []int
		filter *Filter
	}
	filters := []fcase{
		{"none", nil, keepIf([]int{0}, func(*batch.Batch, int) bool { return false })},
		{"some-int", nil, keepIf([]int{0}, func(b *batch.Batch, i int) bool { return b.Col(0)[i].I%7 == 3 })},
		{"some-empty-string", nil, keepIf([]int{4}, func(b *batch.Batch, i int) bool { return b.Col(4)[i].S == "" })},
		{"some-float-bool", nil, keepIf([]int{5, 6}, func(b *batch.Batch, i int) bool {
			return b.Col(6)[i].Truth() && b.Col(5)[i].Float() > 0
		})},
		{"all", nil, keepIf(nil, func(*batch.Batch, int) bool { return true })},
		{"projected", []int{6, 4, 0, 3}, keepIf([]int{2}, func(b *batch.Batch, i int) bool { return b.Col(2)[i].I%5 == 1 })},
	}
	pruners := map[string]*Pruner{
		"no-pruner": nil,
		// i32 straddles group boundaries; tod constrains a column no filter
		// reads, which the scanner must decode early on its own.
		"pruner": {Ranges: []IntRange{{Col: 0, Lo: 150, Hi: 420}, {Col: 3, Lo: 0, Hi: 60000}}},
	}
	for _, fc := range filters {
		for pname, pruner := range pruners {
			for _, batchRows := range []int{1, 64, 100, 512} {
				t.Run(fmt.Sprintf("%s/%s/%d", fc.name, pname, batchRows), func(t *testing.T) {
					width := len(fc.proj)
					if fc.proj == nil {
						width = meta.Schema.Len()
					}
					pool := batch.NewPool(width, batchRows)
					var want []types.Row
					var wantPhysical int64
					wantStats, err := ScanHWCBatches(BytesSource(data), meta, allGroups(meta), fc.proj, pruner, true, pool, func(b *batch.Batch) error {
						wantPhysical += int64(b.Size())
						if err := fc.filter.Apply(b); err != nil {
							return err
						}
						want = append(want, b.Rows()...)
						pool.Put(b)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					got, physical, stats, err := scanSelected(t, data, meta, fc.proj, pruner, fc.filter, batchRows)
					if err != nil {
						t.Fatal(err)
					}
					if stats != wantStats || physical != wantPhysical {
						t.Fatalf("stats %+v physical %d, want %+v physical %d", stats, physical, wantStats, wantPhysical)
					}
					sameRows(t, got, want)
				})
			}
		}
	}
}

// TestLateColumnsAreCheckedInDroppedRows: the late decode steps over the
// rows the filter dropped with every bounds check, so corruption there is
// still an error — and a string length that overflows int is one, not a
// panic.
func TestLateColumnsAreCheckedInDroppedRows(t *testing.T) {
	rows := kindRows(256)
	data := writeHWCSchema(t, kindSchema(), rows, 128)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	// Only row 0 survives; every corruption below sits in row 127.
	keepFirst := keepIf([]int{0}, func(b *batch.Batch, i int) bool { return b.Col(0)[i].I == 0 })
	stringChunk := func(n int) []byte {
		var p []byte
		for _, r := range rows[:n] {
			p = binary.AppendUvarint(p, uint64(len(r[4].S)))
			p = append(p, r[4].S...)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		col    int
		mutate func(plain []byte) []byte
	}{
		{"truncated string", 4, func(p []byte) []byte { return p[:len(p)-1] }},
		{"string length overflows int", 4, func([]byte) []byte { return append(binary.AppendUvarint(stringChunk(127), 1<<63), 'x') }},
		{"truncated varint", 1, func(p []byte) []byte { return append(p[:len(p)-1], 0x80) }},
		{"truncated float", 5, func(p []byte) []byte { return p[:len(p)-3] }},
		{"trailing bytes", 6, func(p []byte) []byte { return append(p, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := rebuildHWC(data, meta, func(gi, c int, raw []byte) []byte {
				if gi != 0 || c != tc.col {
					return raw
				}
				plain, err := compress.Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				return compress.Encode(tc.mutate(slices.Clone(plain)))
			})
			badMeta, err := ReadHWCMeta(BytesSource(bad))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []*Filter{keepFirst, nil} {
				if _, _, _, err := scanSelected(t, bad, badMeta, nil, nil, f, 64); err == nil {
					t.Errorf("filter %v: corrupt chunk accepted", f != nil)
				}
			}
		})
	}
}
