package format

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"hybridwh/internal/types"
)

// Text format: one record per line, fields separated by '|'. Strings must
// not contain '|' or '\n' (the generator guarantees this, as does any
// sensible ETL pipeline feeding a delimited format).

const textDelim = '|'

// TextWriter renders rows into delimited lines.
type TextWriter struct {
	w      io.Writer
	schema types.Schema
	buf    []byte
}

// NewTextWriter creates a writer for the schema.
func NewTextWriter(w io.Writer, schema types.Schema) *TextWriter {
	return &TextWriter{w: w, schema: schema}
}

// Write appends one row.
func (t *TextWriter) Write(row types.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("text: row has %d cols, schema %d", len(row), t.schema.Len())
	}
	t.buf = t.buf[:0]
	for i, v := range row {
		if i > 0 {
			t.buf = append(t.buf, textDelim)
		}
		s := v.Format()
		if strings.IndexByte(s, textDelim) >= 0 || strings.IndexByte(s, '\n') >= 0 {
			return fmt.Errorf("text: value %q contains delimiter", s)
		}
		t.buf = append(t.buf, s...)
	}
	t.buf = append(t.buf, '\n')
	_, err := t.w.Write(t.buf)
	return err
}

// Close is a no-op; the text format has no trailer.
func (t *TextWriter) Close() error { return nil }

// textScanChunk is the read granularity of the text scanner within its
// split; textTailChunk is the granularity once the reader has passed the
// split end and is only finishing its final line. Keeping the tail small
// bounds how far a split reader trespasses into the next split's blocks
// (which are usually on another node).
const (
	textScanChunk = 256 * 1024
	textTailChunk = 256
)

// lineReader yields lines and their absolute start offsets, reading the
// source sequentially in chunks.
type lineReader struct {
	src       Source
	pos       int64 // next byte to fetch
	size      int64
	limit     int64  // split end: reads beyond it shrink to textTailChunk
	buf       []byte // unconsumed bytes; buf[0] is at offset lineStart
	lineStart int64  // absolute offset of buf[0]
	bytesRead int64
}

// chunkSize bounds the next read so the reader never fetches far past its
// split.
func (lr *lineReader) chunkSize() int {
	remaining := lr.limit - lr.pos
	switch {
	case remaining >= textScanChunk:
		return textScanChunk
	case remaining > 0:
		return int(remaining) + textTailChunk
	default:
		return textTailChunk
	}
}

// next returns the next line (without its newline) and the absolute offset
// of its first byte. ok is false at end of input.
func (lr *lineReader) next() (line []byte, startAbs int64, ok bool, err error) {
	for {
		if nl := bytes.IndexByte(lr.buf, '\n'); nl >= 0 {
			line = lr.buf[:nl]
			startAbs = lr.lineStart
			lr.buf = lr.buf[nl+1:]
			lr.lineStart += int64(nl + 1)
			return line, startAbs, true, nil
		}
		if lr.pos >= lr.size {
			// Final unterminated line, if any.
			if len(lr.buf) > 0 {
				line = lr.buf
				startAbs = lr.lineStart
				lr.lineStart += int64(len(lr.buf))
				lr.buf = nil
				return line, startAbs, true, nil
			}
			return nil, 0, false, nil
		}
		chunk, err := lr.src.ReadAt(lr.pos, lr.chunkSize())
		if err != nil {
			return nil, 0, false, fmt.Errorf("text: read at %d: %w", lr.pos, err)
		}
		if len(chunk) == 0 {
			lr.pos = lr.size
			continue
		}
		lr.bytesRead += int64(len(chunk))
		lr.pos += int64(len(chunk))
		if len(lr.buf) == 0 {
			// Avoid a copy in the common case; keep offsets consistent.
			lr.buf = chunk
		} else {
			lr.buf = append(lr.buf, chunk...)
		}
	}
}

// parseTextLineInto parses into a caller-owned row of the projected width,
// letting batch scanners reuse one scratch row for the whole split.
func parseTextLineInto(line []byte, schema types.Schema, proj []int, row types.Row) error {
	ncols := schema.Len()
	field := 0
	fieldStart := 0
	emit := func(fieldIdx int, raw []byte) error {
		if fieldIdx >= ncols {
			return fmt.Errorf("text: too many fields (want %d): %q", ncols, line)
		}
		out := -1
		if proj == nil {
			out = fieldIdx
		} else {
			for i, p := range proj {
				if p == fieldIdx {
					out = i
					break
				}
			}
		}
		if out < 0 {
			return nil
		}
		v, err := types.ParseValue(schema.Cols[fieldIdx].Kind, string(raw))
		if err != nil {
			return fmt.Errorf("text: field %s: %w", schema.Cols[fieldIdx].Name, err)
		}
		row[out] = v
		return nil
	}
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == textDelim {
			if err := emit(field, line[fieldStart:i]); err != nil {
				return err
			}
			field++
			fieldStart = i + 1
		}
	}
	if field != ncols {
		return fmt.Errorf("text: %d fields, schema wants %d: %q", field, ncols, line)
	}
	return nil
}
