package format

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hybridwh/internal/types"
)

func writeHWC(t testing.TB, rows []types.Row, rowsPerGroup int) []byte {
	t.Helper()
	return writeHWCSchema(t, logSchema(), rows, rowsPerGroup)
}

func writeHWCSchema(t testing.TB, schema types.Schema, rows []types.Row, rowsPerGroup int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewHWCWriter(&buf, schema, HWCOptions{RowsPerGroup: rowsPerGroup})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// rebuildHWC lays an HWC file out again from meta — whose row counts a test
// may have edited — passing each chunk's compressed bytes through edit (nil
// keeps them). Stats are copied, extents recomputed.
func rebuildHWC(data []byte, meta *HWCMeta, edit func(gi, c int, raw []byte) []byte) []byte {
	out := []byte(hwcMagic)
	groups := make([]GroupMeta, len(meta.Groups))
	for gi, g := range meta.Groups {
		groups[gi] = GroupMeta{Offset: int64(len(out)), Rows: g.Rows, Cols: make([]ChunkMeta, len(g.Cols))}
		for c, cm := range g.Cols {
			raw := data[cm.Off : cm.Off+int64(cm.Len)]
			if edit != nil {
				raw = edit(gi, c, raw)
			}
			cm.Off, cm.Len = int64(len(out)), len(raw)
			out = append(out, raw...)
			groups[gi].Cols[c] = cm
		}
	}
	return appendFooter(out, int64(len(out)), meta.Schema, groups)
}

func genRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = logRow(int32(i), int32(i%97), int32(16000+i%30), fmt.Sprintf("grp-%05d/path", i%50))
	}
	return rows
}

func allGroups(meta *HWCMeta) []int {
	out := make([]int, len(meta.Groups))
	for i := range out {
		out[i] = i
	}
	return out
}

func TestHWCRoundTrip(t *testing.T) {
	rows := genRows(1000)
	data := writeHWC(t, rows, 128)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatalf("ReadHWCMeta: %v", err)
	}
	if meta.Schema.String() != logSchema().String() {
		t.Errorf("schema = %q", meta.Schema.String())
	}
	if want := (1000 + 127) / 128; len(meta.Groups) != want {
		t.Errorf("groups = %d, want %d", len(meta.Groups), want)
	}
	if meta.TotalRows() != 1000 {
		t.Errorf("TotalRows = %d", meta.TotalRows())
	}
	var got []types.Row
	stats, err := ScanHWC(BytesSource(data), meta, allGroups(meta), nil, nil, true, func(r types.Row) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ScanHWC: %v", err)
	}
	if len(got) != 1000 || stats.RowsRead != 1000 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		for c := range rows[i] {
			if !types.Equal(got[i][c], rows[i][c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, got[i][c], rows[i][c])
			}
		}
	}
}

func TestHWCProjectionReadsFewerBytes(t *testing.T) {
	rows := genRows(5000)
	data := writeHWC(t, rows, 512)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	noop := func(types.Row) error { return nil }
	full, err := ScanHWC(BytesSource(data), meta, allGroups(meta), nil, nil, false, noop)
	if err != nil {
		t.Fatal(err)
	}
	// Project the highly compressible corPred column: reading one chunk of
	// four must cost well under half the full scan.
	proj, err := ScanHWC(BytesSource(data), meta, allGroups(meta), []int{1}, nil, false, noop)
	if err != nil {
		t.Fatal(err)
	}
	if proj.BytesRead >= full.BytesRead/2 {
		t.Errorf("projection pushdown ineffective: proj=%d full=%d", proj.BytesRead, full.BytesRead)
	}
	// Projected scan must read strictly the corPred chunks.
	var want int64
	for _, g := range meta.Groups {
		want += int64(g.Cols[1].Len)
	}
	if proj.BytesRead != want {
		t.Errorf("proj bytes = %d, want %d", proj.BytesRead, want)
	}
}

func TestHWCStatsAndPruning(t *testing.T) {
	// joinKey ascends 0..999, so groups have tight disjoint ranges.
	rows := genRows(1000)
	data := writeHWC(t, rows, 100)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	g0 := meta.Groups[0].Cols[0]
	if !g0.HasStats || g0.Min != 0 || g0.Max != 99 {
		t.Errorf("group 0 joinKey stats = %+v", g0)
	}
	if meta.Groups[0].Cols[3].HasStats {
		t.Error("string column should have no int stats")
	}
	// Predicate joinKey <= 150 must prune all but the first two groups.
	pruner := &Pruner{Ranges: []IntRange{{Col: 0, Lo: -1 << 62, Hi: 150}}}
	var n int64
	stats, err := ScanHWC(BytesSource(data), meta, allGroups(meta), []int{0}, pruner, false, func(r types.Row) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("rows after pruning = %d, want 200 (two groups)", n)
	}
	var wantBytes int64
	for _, g := range meta.Groups[:2] {
		wantBytes += int64(g.Cols[0].Len)
	}
	if stats.BytesRead != wantBytes {
		t.Errorf("pruned scan read %d bytes, want %d", stats.BytesRead, wantBytes)
	}
}

func TestHWCGroupsInRanges(t *testing.T) {
	rows := genRows(1000)
	data := writeHWC(t, rows, 100)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	// Partition the file bytes at an arbitrary midpoint: every group lands
	// in exactly one range.
	mid := meta.Groups[len(meta.Groups)/2].Offset + 1
	a := GroupsInRanges(meta, [][2]int64{{0, mid}})
	b := GroupsInRanges(meta, [][2]int64{{mid, int64(len(data))}})
	if len(a)+len(b) != len(meta.Groups) {
		t.Errorf("split coverage: %d + %d != %d", len(a), len(b), len(meta.Groups))
	}
	seen := map[int]bool{}
	for _, g := range append(a, b...) {
		if seen[g] {
			t.Errorf("group %d in both ranges", g)
		}
		seen[g] = true
	}
}

func TestHWCCompressionShrinksData(t *testing.T) {
	// The paper's table shrinks ~2.4x with Parquet+Snappy; our synthetic
	// rows have similar redundancy in strings and small ints.
	rows := genRows(20000)
	var textBuf bytes.Buffer
	tw := NewTextWriter(&textBuf, logSchema())
	for _, r := range rows {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	hwc := writeHWC(t, rows, 4096)
	if len(hwc) >= textBuf.Len()/2 {
		t.Errorf("HWC %d bytes vs text %d: expected ≥2x shrink", len(hwc), textBuf.Len())
	}
}

func TestHWCErrors(t *testing.T) {
	if _, err := ReadHWCMeta(BytesSource([]byte("tiny"))); err == nil {
		t.Error("tiny file: want error")
	}
	rows := genRows(100)
	data := writeHWC(t, rows, 50)
	// Corrupt the trailer magic.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] = 'X'
	if _, err := ReadHWCMeta(BytesSource(bad)); err == nil {
		t.Error("bad magic: want error")
	}
	// Corrupt the footer offset.
	bad2 := append([]byte(nil), data...)
	bad2[len(bad2)-12] = 0xFF
	bad2[len(bad2)-11] = 0xFF
	if _, err := ReadHWCMeta(BytesSource(bad2)); err == nil {
		t.Error("bad footer offset: want error")
	}

	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	noop := func(types.Row) error { return nil }
	if _, err := ScanHWC(BytesSource(data), meta, []int{99}, nil, nil, false, noop); err == nil {
		t.Error("group out of range: want error")
	}
	if _, err := ScanHWC(BytesSource(data), meta, []int{0}, []int{9}, nil, false, noop); err == nil {
		t.Error("projection out of range: want error")
	}
	// Writer misuse.
	var buf bytes.Buffer
	w, err := NewHWCWriter(&buf, logSchema(), HWCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(types.Row{types.Int32(1)}); err == nil {
		t.Error("arity mismatch: want error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(genRows(1)[0]); err == nil {
		t.Error("write after close: want error")
	}
	if _, err := NewHWCWriter(&buf, types.Schema{}, HWCOptions{}); err == nil {
		t.Error("empty schema: want error")
	}
}

// TestReadHWCMetaRejectsRowCounts: a group's row count comes from the file
// and is untrusted. 2^34 once made the decoder allocate 2^34 values before
// reading a byte (out of memory), and 2^63 wrapped negative and panicked in
// makeslice.
func TestReadHWCMetaRejectsRowCounts(t *testing.T) {
	data := writeHWC(t, genRows(300), 128)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	if same := rebuildHWC(data, meta, nil); !bytes.Equal(same, data) {
		t.Fatal("rebuildHWC does not reproduce the writer's file")
	}
	for _, tc := range []struct {
		name string
		rows int
	}{
		{"zero", 0},
		{"2^31", 1 << 31},
		{"2^34", 1 << 34},
		{"2^63", math.MinInt64}, // uint64 2^63 on the wire
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta, err := ReadHWCMeta(BytesSource(data))
			if err != nil {
				t.Fatal(err)
			}
			meta.Groups[1].Rows = tc.rows
			if _, err := ReadHWCMeta(BytesSource(rebuildHWC(data, meta, nil))); err == nil {
				t.Fatalf("row count %d accepted", uint64(tc.rows))
			}
		})
	}
}

func TestHWCYieldErrorPropagates(t *testing.T) {
	data := writeHWC(t, genRows(10), 5)
	meta, err := ReadHWCMeta(BytesSource(data))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("stop")
	n := 0
	_, err = ScanHWC(BytesSource(data), meta, allGroups(meta), nil, nil, false, func(types.Row) error {
		n++
		return sentinel
	})
	if err != sentinel || n != 1 {
		t.Errorf("err = %v after %d rows", err, n)
	}
}

func TestHWCEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewHWCWriter(&buf, logSchema(), HWCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadHWCMeta(BytesSource(buf.Bytes()))
	if err != nil {
		t.Fatalf("empty file meta: %v", err)
	}
	if len(meta.Groups) != 0 || meta.TotalRows() != 0 {
		t.Errorf("empty file: %d groups, %d rows", len(meta.Groups), meta.TotalRows())
	}
}
