package hybridwh

import (
	"errors"
	"math"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

const (
	// sampleTableRows rows across 4 files: each file is one contiguous
	// 2000-row region in a single HDFS block, one file per JEN worker — so
	// any one worker's holdings are a single region of the table.
	sampleTableRows = 8000
	// sampleBudget covers the whole table when strided (8000/4 = 2000 rows
	// per worker = that worker's full holdings), so the strided estimate is
	// placement-independent and exact.
	sampleBudget = sampleTableRows
)

// openClusteredSample loads an HDFS table whose rows are deliberately
// clustered by file: the predicate column v passes (v=1) only in files 0–1
// and the hot join key 7 lives only in files 2–3. Every statistic is
// therefore regional — any estimator that samples a single worker's blocks
// sees a biased slice of the table.
func openClusteredSample(t *testing.T) *Warehouse {
	t.Helper()
	w, err := Open(Config{DBWorkers: 3, JENWorkers: 4, HDFSFiles: 4, BlockSize: 64 << 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	pt := types.NewSchema(types.C("k", types.KindInt64))
	ev := types.NewSchema(
		types.C("uid", types.KindInt64),
		types.C("v", types.KindInt32),
	)
	var ptRows, evRows []types.Row
	for i := 0; i < 64; i++ {
		ptRows = append(ptRows, types.Row{types.Int64(int64(i))})
	}
	const n = sampleTableRows
	for i := 0; i < n; i++ {
		// CreateHDFSTable deals rows round-robin across the 4 files, so
		// clustering by i%4 makes files 0–1 all-pass / cold and files 2–3
		// all-fail / hot. Cold keys 100.. are disjoint from the hot key so
		// the hot share is exactly 0.5.
		uid, v := int64(100+i%64), int32(0)
		if i%4 < 2 {
			v = 1 // σ_L(v ≥ 1) is exactly 0.5, confined to files 0–1
		} else {
			uid = 7 // the hot key holds half of L, confined to files 2–3
		}
		evRows = append(evRows, types.Row{types.Int64(uid), types.Int32(v)})
	}
	err = w.LoadTables(
		TableDef{Name: "pt", Schema: pt}, SliceSource(ptRows),
		TableDef{Name: "ev", Schema: ev}, SliceSource(evRows),
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// worker0Estimate reproduces the pre-fix estimators' sampling loop — a
// bounded scan of worker 0's blocks only — so the test can compare the old
// bias against the strided estimate on identical data.
func worker0Estimate(t *testing.T, w *Warehouse, jq *plan.JoinQuery, sampleRows int,
	hit func(r types.Row) (bool, error)) float64 {
	t.Helper()
	var scanned, passed int64
	scanPlan, err := w.jenc.PlanScan(jq.HDFSTable)
	if err != nil {
		t.Fatal(err)
	}
	err = w.jenc.ScanFilterBatches(jen.ScanSpec{
		Plan: scanPlan, Worker: 0, Proj: jq.HDFSScanProj, Threads: 1,
	}, func(b *batch.Batch) error {
		return b.Each(func(i int) error {
			scanned++
			ok, err := hit(b.CloneRow(i))
			if err != nil {
				return err
			}
			if ok {
				passed++
			}
			if scanned >= int64(sampleRows) {
				return errEnoughSample
			}
			return nil
		})
	})
	if err != nil && !errors.Is(err, errEnoughSample) {
		t.Fatal(err)
	}
	if scanned == 0 {
		return 1
	}
	return float64(passed) / float64(scanned)
}

// TestSamplingStridesAcrossWorkers is the regression test for the
// single-worker sampling bias: EstimateSigmaL and EstimateHotKeyShare used
// to scan Worker 0 only, so with position-clustered data (locality-aware
// block assignment keeps file runs together) the sample reflected one
// worker's blocks, not the table. The fix strides the budget across every
// JEN worker. Asserted two ways: the per-worker scan counters prove all
// workers were read, and on clustered data the strided estimate is closer
// to ground truth than the old worker-0-only loop on the same table.
func TestSamplingStridesAcrossWorkers(t *testing.T) {
	w := openClusteredSample(t)

	jq, err := w.Plan("select count(*) from pt, ev where pt.k = ev.uid and ev.v >= 1")
	if err != nil {
		t.Fatal(err)
	}

	// Stride proof: every worker's scan counter moves during one estimate.
	// The budget covers each worker's full holdings, so the strided sample
	// is the whole table and the estimate is exact no matter how the
	// locality-aware placement dealt the file runs; the worker-0-only loop
	// under the same budget still reads one worker's slice.
	w.rec.Reset()
	est, err := w.EstimateSigmaL(jq, sampleBudget)
	if err != nil {
		t.Fatal(err)
	}
	scanned := w.rec.Vector(metrics.JENScanRows)
	if len(scanned) < w.jenc.Workers() {
		t.Fatalf("scan counters cover %d workers, want %d: %v", len(scanned), w.jenc.Workers(), scanned)
	}
	for wk, rows := range scanned[:w.jenc.Workers()] {
		if rows == 0 {
			t.Errorf("worker %d scanned 0 rows during sampling: sample is not strided (%v)", wk, scanned)
		}
	}

	// Bias proof, σ_L: truth is 0.5 (front-loaded). The worker-0 loop reads
	// only worker 0's file runs; the strided estimate must not be further
	// from truth, and must not collapse to a degenerate all-pass/all-fail
	// reading of one region.
	const truthSigma = 0.5
	old := worker0Estimate(t, w, jq, sampleBudget, func(r types.Row) (bool, error) {
		return expr.EvalPred(jq.HDFSPred, r)
	})
	t.Logf("σ_L: truth %.3f, strided %.3f, worker-0-only %.3f", truthSigma, est, old)
	if math.Abs(est-truthSigma) > 0.05 {
		t.Errorf("strided σ_L %.3f, want ≈%.1f (full-coverage sample is exact)", est, truthSigma)
	}
	if math.Abs(est-truthSigma) > math.Abs(old-truthSigma) {
		t.Errorf("strided σ_L %.3f is further from truth %.1f than worker-0-only %.3f", est, truthSigma, old)
	}

	// Bias proof, hot-key share: key 7 holds half of L but only in the back
	// half of the file — invisible from a front-region worker, dominant from
	// a back-region one. Same comparative assertion on an all-pass plan.
	jqAll, err := w.Plan("select count(*) from pt, ev where pt.k = ev.uid and ev.v >= 0")
	if err != nil {
		t.Fatal(err)
	}
	const truthHot = 0.5
	hot, err := w.EstimateHotKeyShare(jqAll, sampleBudget)
	if err != nil {
		t.Fatal(err)
	}
	keyIdx := jqAll.HDFSWire[jqAll.HDFSWireKey]
	hotCounts := map[int64]int64{}
	var hotPassed float64
	oldHot := 0.0
	worker0Estimate(t, w, jqAll, sampleBudget, func(r types.Row) (bool, error) {
		hotPassed++
		hotCounts[r[keyIdx].Int()]++
		return true, nil
	})
	for _, c := range hotCounts {
		if s := float64(c) / hotPassed; s > oldHot {
			oldHot = s
		}
	}
	t.Logf("hot share: truth %.3f, strided %.3f, worker-0-only %.3f", truthHot, hot, oldHot)
	if math.Abs(hot-truthHot) > 0.05 {
		t.Errorf("strided hot share %.3f, want ≈%.1f (full-coverage sample is exact)", hot, truthHot)
	}
	if math.Abs(hot-truthHot) > math.Abs(oldHot-truthHot) {
		t.Errorf("strided hot share %.3f is further from truth %.1f than worker-0-only %.3f", hot, truthHot, oldHot)
	}
}

// TestSamplingDefaultBudgetPinned pins both estimators at the default budget
// (sampleRowsDefault over four workers: 500 of each worker's 2000 rows), on
// predicates whose pass rate and hottest key shift if a worker's sample
// stops one batch early or late. The values were captured from the
// row-at-a-time sampler the batch sampler replaced; the advisor's σ_L picks
// the algorithm, so the sample must not move.
func TestSamplingDefaultBudgetPinned(t *testing.T) {
	w := openClusteredSample(t)
	jq, err := w.Plan("select count(*) from pt, ev where pt.k = ev.uid and ev.uid >= 150")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := w.EstimateSigmaL(jq, 0)
	if err != nil {
		t.Fatal(err)
	}
	jqCold, err := w.Plan("select count(*) from pt, ev where pt.k = ev.uid and ev.v >= 1")
	if err != nil {
		t.Fatal(err)
	}
	hot, err := w.EstimateHotKeyShare(jqCold, 0)
	if err != nil {
		t.Fatal(err)
	}
	// σ_L: the two all-fail workers contribute 0 of 1000 rows; each all-pass
	// worker's first 500 rows cycle through 16 uids, 3 of them ≥ 150, for 93
	// passes. Hot share: the same two workers' first 500 rows put at most 32
	// on any one key, out of 1000 passing.
	if want := 186.0 / 2000; sigma != want {
		t.Errorf("σ_L = %v, want %v", sigma, want)
	}
	if want := 32.0 / 1000; hot != want {
		t.Errorf("hot share = %v, want %v", hot, want)
	}
}
