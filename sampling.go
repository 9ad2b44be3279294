package hybridwh

import (
	"errors"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/jen"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

// sampleRowsDefault bounds the sampling scan the advisor runs when it has no
// cardinality hint.
const sampleRowsDefault = 2000

// errEnoughSample stops the sampling scan early.
var errEnoughSample = errors.New("sample complete")

// sampleScan runs the bounded advisor sample, striding across *every* JEN
// worker instead of reading worker 0's blocks alone. Block placement is not
// value-independent — locality-aware assignment groups file runs, and with
// clustered or range-partitioned data worker 0's slice is a biased picture of
// L (a hot key resident in worker 0's blocks looks cluster-dominant; one
// elsewhere is invisible). The per-worker budget splits sampleRows evenly so
// the total stays bounded, and each worker's scan stops after exactly that
// many rows — single-threaded, so the sample is the same prefix of the
// worker's batches whatever the batch boundaries. row sees each sampled row
// in a scratch buffer it must not retain. Counters touched here are reset
// before the query proper runs, same as before.
func (w *Warehouse) sampleScan(jq *plan.JoinQuery, sampleRows int, row func(r types.Row) error) error {
	if sampleRows <= 0 {
		sampleRows = sampleRowsDefault
	}
	scanPlan, err := w.jenc.PlanScan(jq.HDFSTable)
	if err != nil {
		return err
	}
	workers := w.jenc.Workers()
	perWorker := int64(max(sampleRows/workers, 1))
	var scratch types.Row
	for wk := 0; wk < workers; wk++ {
		var scanned int64
		err := w.jenc.ScanFilterBatches(jen.ScanSpec{
			Plan: scanPlan, Worker: wk, Proj: jq.HDFSScanProj, Threads: 1,
		}, func(b *batch.Batch) error {
			return b.Each(func(i int) error {
				scratch = b.RowAt(i, scratch)
				scanned++
				if err := row(scratch); err != nil {
					return err
				}
				if scanned >= perWorker {
					return errEnoughSample
				}
				return nil
			})
		})
		if err != nil && !errors.Is(err, errEnoughSample) {
			return err
		}
	}
	return nil
}

// EstimateSigmaL estimates the HDFS-side predicate selectivity by scanning a
// bounded sample of L strided across all JEN workers and measuring the pass
// rate. The paper sidesteps this with a cardinality hint to the read_hdfs
// UDF; the estimator makes the advisor autonomous when no hint is available.
//
// The sample reads real data through the real scan path (including
// projection pushdown), so its cost is a few row groups per worker; counters
// touched during sampling are reset again before the query proper runs.
func (w *Warehouse) EstimateSigmaL(jq *plan.JoinQuery, sampleRows int) (float64, error) {
	var scanned, passed int64
	// Predicate evaluation happens here rather than in the scan so both the
	// pass and fail counts are visible.
	err := w.sampleScan(jq, sampleRows, func(r types.Row) error {
		scanned++
		ok, err := expr.EvalPred(jq.HDFSPred, r)
		if err != nil {
			return err
		}
		if ok {
			passed++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if scanned == 0 {
		return 1, nil
	}
	return float64(passed) / float64(scanned), nil
}

// EstimateHotKeyShare estimates the share of L' held by its single most
// frequent join key, by counting key frequencies over a bounded sample of
// rows that pass the HDFS predicate, strided across all JEN workers. The
// advisor uses it to detect shuffle-hostile skew before committing to a hash
// repartition; 0 means the sample saw no qualifying rows.
func (w *Warehouse) EstimateHotKeyShare(jq *plan.JoinQuery, sampleRows int) (float64, error) {
	keyIdx := jq.HDFSWire[jq.HDFSWireKey]
	counts := map[int64]int64{}
	var passed int64
	err := w.sampleScan(jq, sampleRows, func(r types.Row) error {
		ok, err := expr.EvalPred(jq.HDFSPred, r)
		if err != nil {
			return err
		}
		if ok {
			passed++
			counts[r[keyIdx].Int()]++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if passed == 0 {
		return 0, nil
	}
	var hottest int64
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	return float64(hottest) / float64(passed), nil
}
