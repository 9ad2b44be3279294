package core

import (
	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// laneChunk is the row count the lane function evaluates at a time: its
// narrow batch and value buffer stay cache-sized whatever the partition's
// size.
const laneChunk = 1024

// lane returns the lane function of the stage's build rows, nil without a
// band: the band's build-side term, which is its right term when the probe
// rows are the left part and its left term otherwise. It evaluates the term
// vectorised over a narrow batch of the term's columns, a chunk of rows at a
// time, and maps each value through expr.BandValue. A row too short for the
// term, an evaluation error or a value BandValue rejects declines the whole
// partition, whose buckets then take the general path and report any error
// exactly where they always did.
func (s *joinStage) lane() relop.LaneFunc {
	if s.band == nil {
		return nil
	}
	term := s.band.Left
	if s.site.probeLeft {
		term = s.band.Right
	}
	cols := expr.ColumnSet(term)
	mapping := make(map[int]int, len(cols))
	for j, c := range cols {
		mapping[c] = j
	}
	narrowTerm, err := expr.Remap(term, mapping)
	if err != nil {
		return nil
	}
	width := cols[len(cols)-1] + 1 // ColumnSet is sorted
	return func(rows []types.Row) ([]int64, bool) {
		nb := batch.New(len(cols), min(laneChunk, len(rows)))
		nrow := make(types.Row, len(cols))
		vals := make([]types.Value, 0, min(laneChunk, len(rows)))
		lane := make([]int64, 0, len(rows))
		for lo := 0; lo < len(rows); lo += laneChunk {
			nb.Reset()
			for _, r := range rows[lo:min(lo+laneChunk, len(rows))] {
				if len(r) < width {
					return nil, false
				}
				for j, c := range cols {
					nrow[j] = r[c]
				}
				nb.AppendRow(nrow)
			}
			var err error
			if vals, err = expr.EvalBatchInto(narrowTerm, nb, vals[:0]); err != nil {
				return nil, false
			}
			for _, v := range vals {
				x, ok := expr.BandValue(v)
				if !ok {
					return nil, false
				}
				lane = append(lane, x)
			}
		}
		return lane, true
	}
}

// probeRange evaluates the band's probe-side term on probeRow and returns
// the closed range of build lane values whose pairs pass: with b the build
// value and p the probe value, lo <= b - p <= hi is p+lo <= b <= p+hi, and
// BandLimit keeps both sums exact. A NULL probe value passes nothing. ok is
// false for an evaluation error or a value BandValue rejects: the bucket
// then takes the general path, which reports the error, if any, as before.
func (c *combiner) probeRange(probeRow types.Row) (lo, hi int64, ok bool) {
	v, err := c.probeTerm.Eval(probeRow)
	if err != nil {
		return 0, 0, false
	}
	p, ok := expr.BandValue(v)
	if !ok {
		return 0, 0, false
	}
	if p == expr.BandNull {
		return 1, 0, true
	}
	return p + c.lo, p + c.hi, true
}

// bandBucket joins one probe row against a bucket with a lane: the pending
// narrow pairs settle first, so output order holds, then the lane is scanned
// and the rows in [lo, hi] are gathered in bucket order. The pair count
// advances over the failing rows arithmetically, so output batches still
// close every BatchRows pairs, surviving or not.
func (c *combiner) bandBucket(probeRow types.Row, bucket []types.Row, lane []int64, lo, hi int64) error {
	if err := c.settle(); err != nil {
		return err
	}
	for len(bucket) > 0 {
		n := min(len(bucket), c.size-c.pairs)
		for k, b := range lane[:n] {
			if lo <= b && b <= hi {
				c.gather(probeRow, bucket[k])
			}
		}
		bucket, lane = bucket[n:], lane[n:]
		if c.pairs += n; c.pairs == c.size {
			if err := c.emit(); err != nil {
				return err
			}
		}
	}
	return nil
}
