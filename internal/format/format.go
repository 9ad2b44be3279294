// Package format implements the two HDFS file formats the paper evaluates:
// a delimited text format and "HWC", a Parquet-like columnar format with
// block compression, per-chunk min/max statistics, projection pushdown and
// row-group predicate pushdown. Section 5.4 of the paper shows the format
// choice dominates scan cost (240 s for 1 TB text vs 38 s for the projected
// columns of 421 GB columnar data); the cost model consumes the byte counts
// these readers report.
package format

import "fmt"

// Format names, as stored in the catalog.
const (
	TextName = "text"
	HWCName  = "hwc"
)

// Source provides positioned reads within one stored file. It is implemented
// by the HDFS client (with locality and read accounting) and by in-memory
// buffers in tests.
//
// The bytes ReadAt returns are read-only: they may be the stored file itself
// (a read inside one HDFS block is not copied). Their capacity ends at their
// length, so an append copies them instead of writing past the read.
type Source interface {
	Size() int64
	ReadAt(off int64, n int) ([]byte, error)
}

// ScanStats reports what a scan consumed and produced. BytesRead is the
// quantity the cost model charges against scan bandwidth: full bytes for
// text, only the projected (compressed) chunks plus footer for HWC.
type ScanStats struct {
	BytesRead int64
	RowsRead  int64
}

// Add accumulates other into s.
func (s *ScanStats) Add(other ScanStats) {
	s.BytesRead += other.BytesRead
	s.RowsRead += other.RowsRead
}

// BytesSource adapts an in-memory buffer to Source.
type BytesSource []byte

// Size implements Source.
func (b BytesSource) Size() int64 { return int64(len(b)) }

// ReadAt implements Source.
func (b BytesSource) ReadAt(off int64, n int) ([]byte, error) {
	if off < 0 || off > int64(len(b)) {
		return nil, fmt.Errorf("format: read at %d outside buffer of %d", off, len(b))
	}
	end := off + int64(n)
	if end > int64(len(b)) {
		end = int64(len(b))
	}
	// Full slice expression: callers may append to the returned slice, which
	// must never spill into the backing buffer.
	return b[off:end:end], nil
}

// IntRange is a closed interval constraint on an integer-kinded column,
// used for row-group pruning ("predicate pushdown").
type IntRange struct {
	Col    int
	Lo, Hi int64
}

// Pruner holds conjunctive range constraints extracted from a predicate.
type Pruner struct {
	Ranges []IntRange
}

// prunes reports whether chunk statistics prove no row in the group can
// satisfy the constraints.
func (p *Pruner) prunes(stats []ChunkMeta) bool {
	if p == nil {
		return false
	}
	for _, r := range p.Ranges {
		if r.Col >= len(stats) {
			continue
		}
		cm := stats[r.Col]
		if !cm.HasStats {
			continue
		}
		if cm.Min > r.Hi || cm.Max < r.Lo {
			return true
		}
	}
	return false
}
