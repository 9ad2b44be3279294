package format

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

func logSchema() types.Schema {
	return types.NewSchema(
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("predAfterJoin", types.KindDate),
		types.C("groupByExtractCol", types.KindString),
	)
}

func logRow(jk, cp int32, d int32, g string) types.Row {
	return types.Row{types.Int32(jk), types.Int32(cp), types.Date(d), types.String(g)}
}

func writeTextRows(t *testing.T, rows []types.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTextWriter(&buf, logSchema())
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanTextRows runs ScanTextBatches and hands its rows to yield one at a
// time, in order: the text tests check rows, not batch boundaries.
func scanTextRows(src Source, schema types.Schema, start, end int64, proj []int, yield func(types.Row) error) (ScanStats, error) {
	width := len(proj)
	if proj == nil {
		width = schema.Len()
	}
	pool := batch.NewPool(width, 64)
	return ScanTextBatches(src, schema, start, end, proj, pool, func(b *batch.Batch) error {
		defer pool.Put(b)
		return b.Each(func(i int) error { return yield(b.RowAt(i, nil)) })
	})
}

func TestTextWriteScanRoundTrip(t *testing.T) {
	rows := []types.Row{
		logRow(1, 10, 16517, "grp-00001/a"),
		logRow(2, 20, 16518, "grp-00002/b"),
		logRow(3, 30, 16519, "grp-00003/c"),
	}
	data := writeTextRows(t, rows)
	var got []types.Row
	stats, err := scanTextRows(BytesSource(data), logSchema(), 0, int64(len(data)), nil, func(r types.Row) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scanTextRows: %v", err)
	}
	if stats.RowsRead != 3 || len(got) != 3 {
		t.Fatalf("rows = %d/%d", stats.RowsRead, len(got))
	}
	if stats.BytesRead != int64(len(data)) {
		t.Errorf("BytesRead = %d, want %d (text scans everything)", stats.BytesRead, len(data))
	}
	for i := range rows {
		for c := range rows[i] {
			if !types.Equal(got[i][c], rows[i][c]) {
				t.Errorf("row %d col %d: %v != %v", i, c, got[i][c], rows[i][c])
			}
		}
	}
}

func TestTextProjection(t *testing.T) {
	rows := []types.Row{logRow(7, 70, 16517, "grp-00007/x")}
	data := writeTextRows(t, rows)
	var got types.Row
	_, err := scanTextRows(BytesSource(data), logSchema(), 0, int64(len(data)), []int{3, 0}, func(r types.Row) error {
		got = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Str() != "grp-00007/x" || got[1].Int() != 7 {
		t.Errorf("projected row = %v", got)
	}
}

// TestTextSplitsConsumeEachLineExactlyOnce is the core input-split property:
// for any partition of the file into contiguous byte ranges, the union of
// rows from scanning each range equals the file, with no duplicates.
func TestTextSplitsConsumeEachLineExactlyOnce(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 500; i++ {
		rows = append(rows, logRow(int32(i), int32(i%100), 16517, fmt.Sprintf("grp-%05d/p", i)))
	}
	data := writeTextRows(t, rows)
	size := int64(len(data))

	for _, nsplits := range []int{1, 2, 3, 7, 10, 33} {
		counts := map[int32]int{}
		var total int64
		for s := 0; s < nsplits; s++ {
			start := size * int64(s) / int64(nsplits)
			end := size * int64(s+1) / int64(nsplits)
			stats, err := scanTextRows(BytesSource(data), logSchema(), start, end, []int{0}, func(r types.Row) error {
				counts[int32(r[0].Int())]++
				return nil
			})
			if err != nil {
				t.Fatalf("splits=%d split %d: %v", nsplits, s, err)
			}
			total += stats.RowsRead
		}
		if total != 500 {
			t.Errorf("splits=%d: total rows %d, want 500", nsplits, total)
		}
		for k, c := range counts {
			if c != 1 {
				t.Errorf("splits=%d: key %d read %d times", nsplits, k, c)
			}
		}
		if len(counts) != 500 {
			t.Errorf("splits=%d: %d distinct keys", nsplits, len(counts))
		}
	}
}

func TestTextSplitBoundaryExactlyAtNewline(t *testing.T) {
	// Construct boundaries exactly at line starts: the line at the boundary
	// belongs to the earlier split.
	data := []byte("1|1|2015-01-01|grp-1/a\n2|2|2015-01-01|grp-2/b\n3|3|2015-01-01|grp-3/c\n")
	firstLineEnd := int64(bytes.IndexByte(data, '\n') + 1)
	var first, second []int64
	if _, err := scanTextRows(BytesSource(data), logSchema(), 0, firstLineEnd, []int{0}, func(r types.Row) error {
		first = append(first, r[0].Int())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := scanTextRows(BytesSource(data), logSchema(), firstLineEnd, int64(len(data)), []int{0}, func(r types.Row) error {
		second = append(second, r[0].Int())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Line 2 starts exactly at firstLineEnd == end of split 1 ⇒ split 1 owns it.
	if len(first) != 2 || first[0] != 1 || first[1] != 2 {
		t.Errorf("first split rows = %v, want [1 2]", first)
	}
	if len(second) != 1 || second[0] != 3 {
		t.Errorf("second split rows = %v, want [3]", second)
	}
}

func TestTextUnterminatedFinalLine(t *testing.T) {
	data := []byte("1|1|2015-01-01|grp-1/a\n2|2|2015-01-01|grp-2/b") // no trailing \n
	var keys []int64
	if _, err := scanTextRows(BytesSource(data), logSchema(), 0, int64(len(data)), []int{0}, func(r types.Row) error {
		keys = append(keys, r[0].Int())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[1] != 2 {
		t.Errorf("keys = %v", keys)
	}
}

func TestTextMalformedInput(t *testing.T) {
	s := logSchema()
	noop := func(types.Row) error { return nil }
	if _, err := scanTextRows(BytesSource([]byte("1|2\n")), s, 0, 4, nil, noop); err == nil {
		t.Error("too few fields: want error")
	}
	if _, err := scanTextRows(BytesSource([]byte("1|2|3|4|5\n")), s, 0, 10, nil, noop); err == nil {
		t.Error("too many fields: want error")
	}
	if _, err := scanTextRows(BytesSource([]byte("x|1|2015-01-01|g\n")), s, 0, 17, nil, noop); err == nil {
		t.Error("unparsable int: want error")
	}
	if _, err := scanTextRows(BytesSource(nil), s, 5, 10, nil, noop); err == nil {
		t.Error("start beyond EOF: want error")
	}
}

func TestTextWriterRejectsDelimiterInValue(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextWriter(&buf, types.NewSchema(types.C("s", types.KindString)))
	if err := w.Write(types.Row{types.String("a|b")}); err == nil {
		t.Error("delimiter in value: want error")
	}
	if err := w.Write(types.Row{types.String("a\nb")}); err == nil {
		t.Error("newline in value: want error")
	}
	if err := w.Write(types.Row{types.String("ok"), types.String("extra")}); err == nil {
		t.Error("arity mismatch: want error")
	}
}

func TestTextYieldErrorPropagates(t *testing.T) {
	data := writeTextRows(t, []types.Row{logRow(1, 1, 1, "grp-1/a"), logRow(2, 2, 2, "grp-2/b")})
	sentinel := fmt.Errorf("stop")
	n := 0
	_, err := scanTextRows(BytesSource(data), logSchema(), 0, int64(len(data)), nil, func(types.Row) error {
		n++
		return sentinel
	})
	if err != sentinel || n != 1 {
		t.Errorf("err = %v after %d rows", err, n)
	}
}

func TestTextEmptyLinesSkipped(t *testing.T) {
	data := []byte("\n1|1|2015-01-01|grp-1/a\n\n\n2|2|2015-01-01|grp-2/b\n\n")
	var n int
	if _, err := scanTextRows(BytesSource(data), logSchema(), 0, int64(len(data)), nil, func(types.Row) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("rows = %d, want 2", n)
	}
}

func TestTextLargeFileAcrossChunks(t *testing.T) {
	// Exceed textScanChunk so lines span internal read boundaries.
	var rows []types.Row
	long := strings.Repeat("x", 100)
	for i := 0; i < 5000; i++ {
		rows = append(rows, logRow(int32(i), 0, 16517, fmt.Sprintf("grp-%05d/%s", i, long)))
	}
	data := writeTextRows(t, rows)
	if len(data) < textScanChunk {
		t.Fatalf("test data too small to cross chunks: %d", len(data))
	}
	var n int64
	stats, err := scanTextRows(BytesSource(data), logSchema(), 0, int64(len(data)), []int{0}, func(r types.Row) error {
		if r[0].Int() != n {
			return fmt.Errorf("out of order: got %d want %d", r[0].Int(), n)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsRead != 5000 {
		t.Errorf("rows = %d", stats.RowsRead)
	}
}
