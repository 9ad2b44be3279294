package format

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hybridwh/internal/batch"
	"hybridwh/internal/compress"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// HWC ("Hybrid Warehouse Columnar") is the repository's Parquet stand-in:
//
//	file    := magic rowGroup* footer trailer
//	magic   := "HWC1"
//	rowGroup:= chunk[ncols]                 (chunks in schema order)
//	chunk   := compress.Encode(plainColumn)
//	footer  := schema uvarint(ngroups) group*
//	schema  := uvarint(ncols) (uvarint(len) name byte(kind))*
//	group   := uvarint(offset) uvarint(rows) col[ncols]
//	col     := uvarint(len) stats
//	stats   := byte(has) [varint(min) varint(max)]
//	trailer := uint64le(footerOffset) "HWC1"
//
// Plain column encodings: integer kinds (int32/int64/date/time/bool) are
// varints; float64 is 8 bytes little-endian; strings are uvarint length +
// bytes. Each chunk is independently compressed, so a reader fetches only
// the chunks of projected columns (projection pushdown) and skips whole row
// groups refuted by min/max stats (predicate pushdown).

const hwcMagic = "HWC1"

// HWCOptions tunes the writer.
type HWCOptions struct {
	// RowsPerGroup bounds the rows per row group. Default 2048 — small
	// enough that scan assignments stay balanced at simulation scales.
	RowsPerGroup int
}

func (o HWCOptions) withDefaults() HWCOptions {
	if o.RowsPerGroup <= 0 {
		o.RowsPerGroup = 2048
	}
	return o
}

// ChunkMeta describes one column chunk within a row group.
type ChunkMeta struct {
	Off      int64 // absolute file offset
	Len      int   // compressed length
	HasStats bool
	Min, Max int64
}

// GroupMeta describes one row group.
type GroupMeta struct {
	Offset int64
	Rows   int
	Cols   []ChunkMeta
}

// HWCMeta is the decoded footer.
type HWCMeta struct {
	Schema types.Schema
	Groups []GroupMeta
	// FooterBytes is the size of the footer+trailer region, charged to the
	// reader that fetches it.
	FooterBytes int64
}

// HWCWriter streams rows into the columnar format: values go straight into
// per-column buffers, which every group reuses.
type HWCWriter struct {
	w      io.Writer
	schema types.Schema
	opts   HWCOptions

	off    int64
	rows   int // rows buffered in cols
	cols   []colBuf
	groups []GroupMeta
	closed bool
}

// colBuf is one column of the group being written: its plain encoding, its
// compressed chunk, and the min/max of an integer kind.
type colBuf struct {
	plain, enc []byte
	min, max   int64
}

// NewHWCWriter creates a writer. Close must be called to emit the footer.
func NewHWCWriter(w io.Writer, schema types.Schema, opts HWCOptions) (*HWCWriter, error) {
	if schema.Len() == 0 {
		return nil, fmt.Errorf("hwc: empty schema")
	}
	hw := &HWCWriter{w: w, schema: schema, opts: opts.withDefaults(), cols: make([]colBuf, schema.Len())}
	if err := hw.emit([]byte(hwcMagic)); err != nil {
		return nil, err
	}
	return hw, nil
}

func (hw *HWCWriter) emit(b []byte) error {
	n, err := hw.w.Write(b)
	hw.off += int64(n)
	return err
}

// Write appends one row to the group, flushing the group when full.
func (hw *HWCWriter) Write(row types.Row) error {
	if hw.closed {
		return fmt.Errorf("hwc: write after close")
	}
	if len(row) != hw.schema.Len() {
		return fmt.Errorf("hwc: row has %d cols, schema %d", len(row), hw.schema.Len())
	}
	for c, v := range row {
		col := &hw.cols[c]
		switch hw.schema.Cols[c].Kind {
		case types.KindString:
			col.plain = binary.AppendUvarint(col.plain, uint64(len(v.S)))
			col.plain = append(col.plain, v.S...)
		case types.KindFloat64:
			col.plain = binary.LittleEndian.AppendUint64(col.plain, uint64(v.I))
		default:
			col.plain = binary.AppendVarint(col.plain, v.I)
			if hw.rows == 0 {
				col.min, col.max = v.I, v.I
			}
			col.min, col.max = min(col.min, v.I), max(col.max, v.I)
		}
	}
	hw.rows++
	if hw.rows >= hw.opts.RowsPerGroup {
		return hw.flushGroup()
	}
	return nil
}

func intKind(k types.Kind) bool {
	switch k {
	case types.KindInt32, types.KindInt64, types.KindDate, types.KindTime, types.KindBool:
		return true
	}
	return false
}

// flushGroup compresses the group's chunks in parallel and emits them in
// schema order.
func (hw *HWCWriter) flushGroup() error {
	if hw.rows == 0 {
		return nil
	}
	_ = par.ForEach(len(hw.cols), func(c int) error { // the encodes cannot fail
		hw.cols[c].enc = compress.AppendEncode(hw.cols[c].enc[:0], hw.cols[c].plain)
		return nil
	})
	gm := GroupMeta{Offset: hw.off, Rows: hw.rows, Cols: make([]ChunkMeta, len(hw.cols))}
	for c := range hw.cols {
		col := &hw.cols[c]
		cm := ChunkMeta{Off: hw.off, Len: len(col.enc)}
		if intKind(hw.schema.Cols[c].Kind) {
			cm.HasStats, cm.Min, cm.Max = true, col.min, col.max
		}
		gm.Cols[c] = cm
		if err := hw.emit(col.enc); err != nil {
			return err
		}
		col.plain = col.plain[:0]
	}
	hw.groups = append(hw.groups, gm)
	hw.rows = 0
	return nil
}

// Close flushes the final group and writes the footer and trailer.
func (hw *HWCWriter) Close() error {
	if hw.closed {
		return nil
	}
	if err := hw.flushGroup(); err != nil {
		return err
	}
	if err := hw.emit(appendFooter(nil, hw.off, hw.schema, hw.groups)); err != nil {
		return err
	}
	hw.closed = true
	return nil
}

// appendFooter appends the footer and trailer of a file whose footer starts
// at footerOff.
func appendFooter(f []byte, footerOff int64, schema types.Schema, groups []GroupMeta) []byte {
	f = binary.AppendUvarint(f, uint64(schema.Len()))
	for _, col := range schema.Cols {
		f = binary.AppendUvarint(f, uint64(len(col.Name)))
		f = append(f, col.Name...)
		f = append(f, byte(col.Kind))
	}
	f = binary.AppendUvarint(f, uint64(len(groups)))
	for _, g := range groups {
		f = binary.AppendUvarint(f, uint64(g.Offset))
		f = binary.AppendUvarint(f, uint64(g.Rows))
		for _, cm := range g.Cols {
			f = binary.AppendUvarint(f, uint64(cm.Len))
			if cm.HasStats {
				f = append(f, 1)
				f = binary.AppendVarint(f, cm.Min)
				f = binary.AppendVarint(f, cm.Max)
			} else {
				f = append(f, 0)
			}
		}
	}
	f = binary.LittleEndian.AppendUint64(f, uint64(footerOff))
	return append(f, hwcMagic...)
}

// ReadHWCMeta reads and decodes the footer of an HWC file.
func ReadHWCMeta(src Source) (*HWCMeta, error) {
	size := src.Size()
	if size < 16 {
		return nil, fmt.Errorf("hwc: file too small (%d bytes)", size)
	}
	tr, err := src.ReadAt(size-12, 12)
	if err != nil {
		return nil, err
	}
	if len(tr) != 12 || string(tr[8:]) != hwcMagic {
		return nil, fmt.Errorf("hwc: bad trailer magic")
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[:8]))
	if footerOff < int64(len(hwcMagic)) || footerOff >= size-12 {
		return nil, fmt.Errorf("hwc: footer offset %d out of range", footerOff)
	}
	f, err := src.ReadAt(footerOff, int(size-12-footerOff))
	if err != nil {
		return nil, err
	}
	meta := &HWCMeta{FooterBytes: size - footerOff}

	r := &uvReader{b: f}
	ncols := int(r.uvarint())
	if r.err == nil && (ncols <= 0 || ncols > 10000) {
		return nil, fmt.Errorf("hwc: implausible column count %d", ncols)
	}
	for i := 0; i < ncols && r.err == nil; i++ {
		nameLen := int(r.uvarint())
		name := r.bytes(nameLen)
		kind := types.Kind(r.byte())
		meta.Schema.Cols = append(meta.Schema.Cols, types.Col{Name: string(name), Kind: kind})
	}
	// Every count and extent below is untrusted: a group must hold between
	// 1 and MaxInt32 rows, and its chunks must lie between the magic and the
	// footer, so no reader sizes anything from a junk footer.
	ngroups := r.uvarint()
	for i := uint64(0); i < ngroups && r.err == nil; i++ {
		start, rows := r.uvarint(), r.uvarint()
		if r.err == nil && (rows == 0 || rows > math.MaxInt32) {
			return nil, fmt.Errorf("hwc: group %d row count %d out of range", i, rows)
		}
		if r.err == nil && (start < uint64(len(hwcMagic)) || start > uint64(footerOff)) {
			return nil, fmt.Errorf("hwc: group %d offset %d out of range", i, start)
		}
		g := GroupMeta{Offset: int64(start), Rows: int(rows), Cols: make([]ChunkMeta, ncols)}
		off := g.Offset
		for c := 0; c < ncols && r.err == nil; c++ {
			n := r.uvarint()
			if r.err == nil && n > uint64(footerOff-off) {
				return nil, fmt.Errorf("hwc: group %d chunk %d of %d bytes overruns the footer", i, c, n)
			}
			cm := ChunkMeta{Off: off, Len: int(n)}
			if r.byte() == 1 {
				cm.HasStats = true
				cm.Min = r.varint()
				cm.Max = r.varint()
			}
			off += int64(cm.Len)
			g.Cols[c] = cm
		}
		meta.Groups = append(meta.Groups, g)
	}
	if r.err != nil {
		return nil, r.err
	}
	return meta, nil
}

// rowScanBatch is the batch size behind ScanHWC's row view.
const rowScanBatch = 1024

// ScanHWC is the row view of ScanHWCBatches: it yields every physical row of
// the groups the pruner does not refute, in proj order and freshly
// allocated. Pruner ranges drop whole groups only, not rows.
func ScanHWC(src Source, meta *HWCMeta, groups []int, proj []int, pruner *Pruner, footerCharged bool, yield func(types.Row) error) (ScanStats, error) {
	width := len(proj)
	if proj == nil {
		width = meta.Schema.Len()
	}
	pool := batch.NewPool(width, rowScanBatch)
	return ScanHWCBatches(src, meta, groups, proj, pruner, footerCharged, pool, func(b *batch.Batch) error {
		defer pool.Put(b)
		for i := 0; i < b.Size(); i++ {
			if err := yield(b.CloneRow(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// GroupsInRanges returns the indexes of row groups whose start offset falls
// in any of the half-open [start, end) byte ranges — how the JEN coordinator
// maps HDFS block assignments to row-group work (the Parquet midpoint rule,
// simplified to group starts).
func GroupsInRanges(meta *HWCMeta, ranges [][2]int64) []int {
	var out []int
	for i, g := range meta.Groups {
		for _, r := range ranges {
			if g.Offset >= r[0] && g.Offset < r[1] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// uvReader decodes varints from a buffer with sticky errors.
type uvReader struct {
	b   []byte
	err error
}

func (r *uvReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("hwc: truncated footer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint zig-zag decodes a uvarint, as binary.Varint does.
func (r *uvReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *uvReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = fmt.Errorf("hwc: truncated footer")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *uvReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.err = fmt.Errorf("hwc: truncated footer")
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}
