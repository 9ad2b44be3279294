package core

import (
	"context"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

// ZigzagDBVariant is the variant the paper dismisses in Section 3.4: a
// zigzag-style two-way Bloom filter exchange whose *final join runs in the
// database*. It must scan the HDFS table twice — once to build BF_H, once
// (after BF_H has pruned T') to ship the doubly-filtered L” into the
// database — and "scanning the HDFS table twice, without the help of
// indexes, is expected to introduce significant overhead." Implemented as an
// extension so the claim is checkable; see BenchmarkAblationZigzagDBSide.
const ZigzagDBVariant Algorithm = 101

// runZigzagDB executes the dismissed variant:
//
//  1. DB builds BF_DB and sends it to every JEN worker.
//  2. JEN scan #1: local predicates + BF_DB, building BF_H only (nothing is
//     shuffled or shipped).
//  3. BF_H goes to the database, where it prunes T' to T”.
//  4. JEN scan #2: local predicates + BF_DB again; surviving rows ship to
//     the DB workers (grouped transfer), which reshuffle and join exactly as
//     the DB-side join does.
func (e *Engine) runZigzagDB(ctx context.Context, qs string, q *plan.JoinQuery) (*Result, error) {
	n, m := e.jen.Workers(), e.db.Workers()
	tbl, scanPlan, accessPlan, err := e.resolve(q)
	if err != nil {
		return nil, err
	}

	bfdb, err := e.db.BuildBloom(tbl, q.DBPred, q.DBJoinColBase, e.cfg.BloomBits, e.cfg.BloomHashes)
	if err != nil {
		return nil, err
	}

	// Phase 1: scan #1 on every JEN worker, building local BF_H; union at
	// the designated worker. This is a plain fan-in, run to completion
	// before anything else moves.
	scanKey := q.HDFSWire[q.HDFSWireKey]
	locals := make([]*bloom.Filter, n)
	err = par.ForEach(n, func(w int) error {
		bfh := bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
		err := e.jen.ScanFilterBatches(jen.ScanSpec{
			Plan: scanPlan, Worker: w,
			Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
			DBFilter: wrapBloom(bfdb), BuildBloom: bfh, BloomKeyIdx: scanKey,
			Threads: e.cfg.WorkerThreads,
			Mem:     e.budget(qs),
		}, func(*batch.Batch) error { return nil })
		locals[w] = bfh
		return err
	})
	if err != nil {
		return nil, err
	}
	bfh := locals[0]
	for _, l := range locals[1:] {
		if err := bfh.Union(l); err != nil {
			return nil, err
		}
	}
	// BF_H crosses to the database (counted like every filter exchange).
	e.rec.Add(metrics.BloomBytes, int64(len(bfh.Marshal()))*int64(m))

	// Phase 2: the DB-side join machinery over the doubly-filtered inputs.
	// T'' = T' ∩ BF_H is produced inside dbJoinProgram via a wrapped access
	// plan; L'' ships from scan #2 with both filters applied.
	jenToDB := make([]int, n)
	groupSize := make([]int, m)
	for i := 0; i < n; i++ {
		d := i % m
		jenToDB[i] = d
		groupSize[d]++
	}
	strategy := e.dbStrategy(q, tbl, accessPlan)

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row
	for w := 0; w < n; w++ {
		w := w
		g.Go(func() error {
			// Scan #2: same filters; ship survivors to the group DB worker.
			me := jenName(w)
			dest := dbName(jenToDB[w])
			b := e.newBatcher(ctx, me, qs+"ingest", []string{dest}, metrics.HDFSSentTuples, metrics.HDFSSentBytes, w)
			serr := e.jen.ScanFilterBatches(jen.ScanSpec{
				Plan: scanPlan, Worker: w,
				Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
				DBFilter: wrapBloom(bfdb), BloomKeyIdx: scanKey,
				Threads: e.cfg.WorkerThreads,
				Mem:     e.budget(qs),
			}, func(sb *batch.Batch) error {
				return b.sendBatch(dest, sb, q.HDFSWire)
			})
			firstErr(&serr, b.CloseWith(serr))
			return serr
		})
	}
	for i := 0; i < m; i++ {
		i := i
		g.Go(func() error {
			rows, err := e.dbJoinProgram(ctx, qs, q, tbl, accessPlan, strategy, i, m, groupSize[i], bfh)
			if i == 0 {
				resultRows = rows
			}
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return &Result{Rows: resultRows, DBJoinStrategy: strategy}, nil
}
