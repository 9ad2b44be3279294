package format

import (
	"encoding/binary"
	"fmt"

	"hybridwh/internal/batch"
	"hybridwh/internal/compress"
	"hybridwh/internal/types"
)

// Batch-at-a-time scanners. They charge ScanStats the same way as the row
// view ScanHWC — RowsRead counts every physical row of an unpruned group,
// BytesRead every fetched byte — but deliver the rows as columnar batches
// drawn from a pool.
//
// Ownership convention: the scanner Gets an empty batch from pool, fills it
// and yields it; from that point the batch belongs to the callee, which
// normally Puts it back once consumed. The pool's capacity is the batch row
// target.
//
// The HWC scanner additionally pre-narrows each batch's selection vector
// with the pruner's per-column ranges. This is safe for exactness because
// pruner ranges are extracted from the scan predicate: any deselected row
// would be rejected by the predicate anyway, and physical counts (RowsRead,
// the JEN "processed" counter) are charged from Size(), not Len().

// Filter narrows a scanned batch's selection before the rest of the batch is
// decoded (late materialisation). Apply may read only the Early columns —
// positions in the projected batch layout; positions outside it are ignored
// — because every other column holds zero Values while it runs.
type Filter struct {
	Early []int
	Apply func(*batch.Batch) error
}

// ScanHWCBatches is ScanHWCFiltered without a filter: every projected column
// is decoded for every row.
func ScanHWCBatches(src Source, meta *HWCMeta, groups []int, proj []int, pruner *Pruner, footerCharged bool, pool *batch.Pool, yield func(*batch.Batch) error) (ScanStats, error) {
	return ScanHWCFiltered(src, meta, groups, proj, pruner, footerCharged, nil, pool, yield)
}

// ScanHWCFiltered scans the given row groups (indexes into meta.Groups) into
// pooled batches, fetching only the chunks of the projected columns and
// skipping groups the pruner refutes. proj == nil reads all columns; batch
// columns are in proj order. footerCharged controls whether
// meta.FooterBytes is added to BytesRead (chargeable once per file per
// scanning worker).
//
// Each batch is decoded in three steps: the early columns — filter.Early
// and every column a pruner range constrains — for every row; then the
// pruner ranges and filter.Apply narrow the selection; then the other
// (late) columns for the selected rows only, leaving zero Values in the
// late cells of unselected rows. The late step still steps over every row
// and checks every length, so a corrupt chunk is an error whichever rows
// the filter keeps. A nil filter makes every column early.
//
// Every batch is yielded, even one whose selection is empty: physical counts
// are charged from Size(), not Len().
func ScanHWCFiltered(src Source, meta *HWCMeta, groups []int, proj []int, pruner *Pruner, footerCharged bool, filter *Filter, pool *batch.Pool, yield func(*batch.Batch) error) (ScanStats, error) {
	var stats ScanStats
	if footerCharged {
		stats.BytesRead += meta.FooterBytes
	}
	ncols := meta.Schema.Len()
	if proj == nil {
		proj = make([]int, ncols)
		for i := range proj {
			proj[i] = i
		}
	}
	if len(proj) == 0 {
		return stats, fmt.Errorf("hwc: empty projection")
	}
	curs := make([]chunkCursor, len(proj))
	for pi, p := range proj {
		if p < 0 || p >= ncols {
			return stats, fmt.Errorf("hwc: projected column %d out of range (%d cols)", p, ncols)
		}
		curs[pi] = chunkCursor{c: p, kind: meta.Schema.Cols[p].Kind}
	}
	ranges := projectRanges(pruner, proj, meta.Schema)
	early := make([]bool, len(proj))
	for pi := range early {
		early[pi] = filter == nil
	}
	if filter != nil {
		for _, pi := range filter.Early {
			if pi >= 0 && pi < len(early) {
				early[pi] = true
			}
		}
	}
	for _, r := range ranges {
		early[r.pos] = true
	}
	cols := make([][]types.Value, len(proj))
	for _, gi := range groups {
		if gi < 0 || gi >= len(meta.Groups) {
			return stats, fmt.Errorf("hwc: row group %d out of range (%d groups)", gi, len(meta.Groups))
		}
		g := meta.Groups[gi]
		if pruner.prunes(g.Cols) {
			continue
		}
		for pi, c := range proj {
			n, err := curs[pi].load(src, g.Cols[c], gi)
			stats.BytesRead += n
			if err != nil {
				return stats, err
			}
		}
		for r := 0; r < g.Rows; {
			b := pool.Get()
			take := min(b.Cap(), g.Rows-r)
			setRows(b, take, cols)
			if err := decodeBatch(b, curs, early, ranges, filter); err != nil {
				pool.Put(b)
				return stats, err
			}
			r += take
			stats.RowsRead += int64(take)
			if err := yield(b); err != nil {
				return stats, err
			}
		}
		for pi := range curs {
			if err := curs[pi].finish(); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// setRows sets b's row count to n with the decoder writing the cells in
// place: each column is re-sliced to n within its pooled capacity and
// appended onto itself, a copy whose source and destination coincide (the
// runtime skips it). The cells hold whatever the batch held before until the
// decoder overwrites them.
func setRows(b *batch.Batch, n int, cols [][]types.Value) {
	for j := range cols {
		cols[j] = b.Col(j)[:n]
	}
	b.AppendColumns(cols, 0, n)
}

// decodeBatch fills b's cells from the cursors: early columns for every row,
// then the ranges and the filter, then late columns for the selection.
func decodeBatch(b *batch.Batch, curs []chunkCursor, early []bool, ranges []batchRange, filter *Filter) error {
	for pi := range curs {
		if early[pi] {
			if err := curs[pi].decode(b.Col(pi), nil); err != nil {
				return err
			}
		}
	}
	applyRanges(b, ranges)
	if filter != nil {
		if err := filter.Apply(b); err != nil {
			return err
		}
	}
	for pi := range curs {
		if !early[pi] {
			if err := curs[pi].decode(b.Col(pi), b.Sel()); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkCursor decodes one column chunk of a row group a run of rows at a
// time. Every length is bounds-checked, in the rows it skips as well as the
// rows it decodes.
type chunkCursor struct {
	c     int // file column, for errors
	kind  types.Kind
	gi    int    // row group being decoded, for errors
	plain []byte // decompressed chunk; the buffer is reused across groups
	off   int    // next undecoded byte of plain
	row   int    // next row of the group
}

// load fetches and decompresses column chunk cm of group gi, returning the
// compressed bytes charged.
func (cur *chunkCursor) load(src Source, cm ChunkMeta, gi int) (int64, error) {
	raw, err := src.ReadAt(cm.Off, cm.Len)
	if err != nil {
		return 0, fmt.Errorf("hwc: read chunk g%d c%d: %w", gi, cur.c, err)
	}
	if len(raw) != cm.Len {
		return 0, fmt.Errorf("hwc: short chunk read g%d c%d: %d of %d", gi, cur.c, len(raw), cm.Len)
	}
	cur.plain, err = compress.AppendDecode(cur.plain[:0], raw)
	if err != nil {
		return int64(cm.Len), fmt.Errorf("hwc: decompress g%d c%d: %w", gi, cur.c, err)
	}
	cur.gi, cur.off, cur.row = gi, 0, 0
	return int64(cm.Len), nil
}

func (cur *chunkCursor) fail(row int, what string) error {
	return fmt.Errorf("hwc: decode g%d c%d: row %d: %s", cur.gi, cur.c, row, what)
}

// decode decodes the next len(dst) rows into dst, materialising only the
// rows whose indexes are in sel (ascending) and zeroing the rest; a nil sel
// selects every row.
func (cur *chunkCursor) decode(dst []types.Value, sel []int32) error {
	if sel == nil {
		return cur.step(len(dst), dst)
	}
	clear(dst)
	at := 0
	for k := 0; k < len(sel); {
		// Decode each run of consecutive selected rows in one step.
		i, j := int(sel[k]), k+1
		for j < len(sel) && int(sel[j]) == i+j-k {
			j++
		}
		if err := cur.step(i-at, nil); err != nil {
			return err
		}
		if err := cur.step(j-k, dst[i:i+j-k]); err != nil {
			return err
		}
		at, k = i+j-k, j
	}
	return cur.step(len(dst)-at, nil)
}

// step advances over the next n rows, decoding them into dst unless dst is
// nil.
func (cur *chunkCursor) step(n int, dst []types.Value) error {
	p, off := cur.plain, cur.off
	switch cur.kind {
	case types.KindString:
		for i := 0; i < n; i++ {
			l, sz := binary.Uvarint(p[off:])
			if sz <= 0 {
				return cur.fail(cur.row+i, "truncated string length")
			}
			off += sz
			if l > uint64(len(p)-off) {
				return cur.fail(cur.row+i, "truncated string")
			}
			if dst != nil {
				dst[i] = types.Value{K: types.KindString, S: string(p[off : off+int(l)])}
			}
			off += int(l)
		}
	case types.KindFloat64:
		if avail := (len(p) - off) / 8; n > avail {
			return cur.fail(cur.row+avail, "truncated float")
		}
		if dst != nil {
			for i := 0; i < n; i++ {
				dst[i] = types.Value{K: types.KindFloat64, I: int64(binary.LittleEndian.Uint64(p[off+8*i:]))}
			}
		}
		off += 8 * n
	default:
		for i := 0; i < n; i++ {
			v, sz := binary.Varint(p[off:])
			if sz <= 0 {
				return cur.fail(cur.row+i, "truncated varint")
			}
			if dst != nil {
				dst[i] = types.Value{K: cur.kind, I: v}
			}
			off += sz
		}
	}
	cur.off = off
	cur.row += n
	return nil
}

// finish checks that the group's rows consumed the whole chunk.
func (cur *chunkCursor) finish() error {
	if rest := len(cur.plain) - cur.off; rest != 0 {
		return fmt.Errorf("hwc: decode g%d c%d: %d trailing bytes in chunk", cur.gi, cur.c, rest)
	}
	return nil
}

// batchRange is an IntRange remapped to a batch column position.
type batchRange struct {
	pos    int
	lo, hi int64
}

// projectRanges remaps the pruner's schema-indexed ranges onto the projected
// batch layout, dropping ranges on unprojected or non-integer columns.
func projectRanges(pruner *Pruner, proj []int, schema types.Schema) []batchRange {
	if pruner == nil {
		return nil
	}
	var out []batchRange
	for _, r := range pruner.Ranges {
		if r.Col < 0 || r.Col >= schema.Len() || !intKind(schema.Cols[r.Col].Kind) {
			continue
		}
		for pi, c := range proj {
			if c == r.Col {
				out = append(out, batchRange{pos: pi, lo: r.Lo, hi: r.Hi})
				break
			}
		}
	}
	return out
}

// applyRanges narrows b's selection with each projected range constraint.
func applyRanges(b *batch.Batch, ranges []batchRange) {
	for _, r := range ranges {
		col := b.Col(r.pos)
		b.Filter(func(i int) bool { return col[i].I >= r.lo && col[i].I <= r.hi })
	}
}

// ScanTextBatches scans the input split [start, end) of a text file into
// pooled batches, following the Hadoop convention that makes concurrent
// split readers consume every line exactly once: a line belongs to this
// split if its first byte offset s satisfies start < s <= end (plus s == 0
// when start == 0). A reader whose range begins mid-file therefore discards
// everything up to the first newline, and reads past end to finish its last
// line. Only the projected columns are materialized; proj == nil keeps all
// columns (output laid out in proj order otherwise). BytesRead counts every
// byte fetched — a text scan cannot skip anything. Text carries no
// statistics, so selections start full.
func ScanTextBatches(src Source, schema types.Schema, start, end int64, proj []int, pool *batch.Pool, yield func(*batch.Batch) error) (stats ScanStats, err error) {
	size := src.Size()
	if start < 0 || start > size {
		return stats, fmt.Errorf("text: scan start %d outside file of %d", start, size)
	}
	if end > size {
		end = size
	}
	lr := &lineReader{src: src, pos: start, size: size, limit: end, lineStart: start}
	defer func() { stats.BytesRead = lr.bytesRead }()

	if start > 0 {
		// The line we land in belongs to the previous split.
		if _, _, ok, err := lr.next(); err != nil || !ok {
			return stats, err
		}
	}
	width := len(proj)
	if proj == nil {
		width = schema.Len()
	}
	scratch := make(types.Row, width)
	b := pool.Get()
	flush := func() error {
		if b.Size() == 0 {
			return nil
		}
		if err := yield(b); err != nil {
			return err
		}
		b = pool.Get()
		return nil
	}
	for {
		line, s, ok, err := lr.next()
		if err != nil {
			return stats, err
		}
		if !ok || s > end {
			if ferr := flush(); ferr != nil {
				return stats, ferr
			}
			pool.Put(b)
			return stats, nil
		}
		if len(line) == 0 {
			continue
		}
		if err := parseTextLineInto(line, schema, proj, scratch); err != nil {
			return stats, err
		}
		stats.RowsRead++
		b.AppendRow(scratch)
		if b.Full() {
			if err := flush(); err != nil {
				return stats, err
			}
		}
	}
}
