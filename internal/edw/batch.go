package edw

import (
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/expr"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// Batch-at-a-time access primitives: the engine's only way to read T'. They
// charge exactly the counters the row-at-a-time FilterProject does
// (DBFilteredRows, and the scan/index counters inside scanPartition), so
// moving the engine onto them moved no Table 1 number.

// FilterProjectBatches streams worker w's filtered, projected partition (T'
// for that worker) as dense batches of up to batchRows rows. Batches are on
// loan: each is valid only during its yield call and is reused afterwards.
// With threads > 1 a full table scan evaluates the predicate morsel-parallel;
// emission stays sequential in partition order, so the yielded row stream —
// and every counter — is identical at any thread count. Index paths and
// threads <= 1 run the plain sequential scan.
func (db *DB) FilterProjectBatches(t *Table, w int, plan AccessPlan, proj []int, batchRows, threads int, yield func(*batch.Batch) error) error {
	if batchRows <= 0 {
		batchRows = 1
	}
	out := batch.New(len(proj), batchRows)
	scratch := make(types.Row, len(proj))
	var kept int64
	emit := func(row types.Row) error {
		for j, p := range proj {
			scratch[j] = row[p]
		}
		out.AppendRow(scratch)
		kept++
		if out.Full() {
			if err := yield(out); err != nil {
				return err
			}
			out.Reset()
		}
		return nil
	}
	var err error
	if threads > 1 && plan.Path == PathTableScan {
		err = db.scanPartitionMorsels(t, w, plan, threads, emit)
	} else {
		err = db.scanPartition(t, w, plan, emit)
	}
	if err != nil {
		return err
	}
	if out.Size() > 0 {
		if err := yield(out); err != nil {
			return err
		}
	}
	db.rec.AddAt(metrics.DBFilteredRows, w, kept)
	return nil
}

// morselRows is the morsel size for the parallel table-scan filter: big
// enough to amortize the claim, small enough to balance skewed predicates.
const morselRows = 1024

// scanPartitionMorsels is scanPartition's table-scan path with the predicate
// evaluated morsel-parallel: threads goroutines claim fixed-size row ranges
// off an atomic cursor and record each range's survivors, then the survivors
// are replayed to fn sequentially in partition order. The emitted row
// sequence is exactly the sequential scan's, so callers cannot observe the
// parallelism (beyond wall-clock).
func (db *DB) scanPartitionMorsels(t *Table, w int, plan AccessPlan, threads int, fn func(types.Row) error) error {
	t.mu.RLock()
	p := t.parts[w]
	t.mu.RUnlock()
	rows := p.rows
	db.rec.AddAt(metrics.DBScanRows, w, int64(len(rows)))
	nm := (len(rows) + morselRows - 1) / morselRows
	if threads > nm {
		threads = nm
	}
	keep := make([][]int32, nm)
	var next atomic.Int64
	err := par.ForEach(threads, func(int) error {
		for {
			m := int(next.Add(1)) - 1
			if m >= nm {
				return nil
			}
			lo, hi := m*morselRows, min((m+1)*morselRows, len(rows))
			var sel []int32
			for i := lo; i < hi; i++ {
				ok, err := expr.EvalPred(plan.Pred, rows[i])
				if err != nil {
					return err
				}
				if ok {
					sel = append(sel, int32(i))
				}
			}
			keep[m] = sel
		}
	})
	if err != nil {
		return err
	}
	for _, sel := range keep {
		for _, i := range sel {
			if err := fn(rows[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyBloomBatches narrows each batch's selection to the rows whose join
// key survives the HDFS Bloom filter BF_H (zigzag join step 5), reporting how
// many rows the filter removed. The drop is recorded once per call, as
// DBBloomFiltered, even when there are no batches.
func (db *DB) ApplyBloomBatches(bs []*batch.Batch, keyIdx int, bf *bloom.Filter) int64 {
	var dropped int64
	for _, b := range bs {
		before := b.Len()
		keys := b.Col(keyIdx)
		b.Filter(func(i int) bool {
			return bf.TestHash(types.BloomHashKey(keys[i].Int()))
		})
		dropped += int64(before - b.Len())
	}
	db.rec.Add(metrics.DBBloomFiltered, dropped)
	return dropped
}
