package core

import (
	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// postJoin is a two-table query's post-join predicate as its join sites use
// it: the predicate over the combined layout (HDFS wire ++ DB wire) and, when
// the predicate is a band (expr.SplitBand) — the paper's
// 0 <= days(T.date) - days(L.date) <= 1 is one — its two separated terms.
// With a band, each table a join site builds carries a lane of its rows'
// build-side term values, and the combiner tests a bucket against one probe
// value as an int64 range instead of evaluating the predicate per pair.
// The zero value is "no predicate".
type postJoin struct {
	pred expr.Expr
	band *expr.Band // nil: no band, every pair runs the predicate
}

// newPostJoin finds q's band, once per query.
func newPostJoin(q *plan.JoinQuery) postJoin {
	return splitPostJoin(q.PostJoin, len(q.HDFSWire))
}

// splitPostJoin is newPostJoin for a predicate over a combined layout whose
// left part is leftWidth columns wide.
func splitPostJoin(pred expr.Expr, leftWidth int) postJoin {
	pj := postJoin{pred: pred}
	if b, ok := expr.SplitBand(pred, leftWidth); ok {
		pj.band = b
	}
	return pj
}

// laneChunk is the row count the lane function evaluates at a time: its
// narrow batch and value buffer stay cache-sized whatever the partition's
// size.
const laneChunk = 1024

// lane returns the lane function for a table whose rows are the left (HDFS
// wire, buildLeft) or the right (DB wire) part of the combined layout, nil
// without a band. It evaluates the band's build-side term vectorised over a
// narrow batch of the term's columns, a chunk of rows at a time, and maps
// each value through expr.BandValue. A row too short for the term, an
// evaluation error or a value BandValue rejects declines the whole
// partition, whose buckets then take the general path and report any error
// exactly where they always did.
func (pj postJoin) lane(buildLeft bool) relop.LaneFunc {
	if pj.band == nil {
		return nil
	}
	term := pj.band.Right
	if buildLeft {
		term = pj.band.Left
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
