package core

import (
	"context"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// runDBSide executes the DB-side join (Figure 1): the HDFS side applies
// local predicates, projection and (optionally) BF_DB, then ships the
// filtered table in parallel into the database — each JEN worker streams to
// the DB worker owning its group (Figure 5). The database optimizer picks
// the final join strategy (broadcast either side or repartition both), which
// may reshuffle the ingested HDFS rows again because the database's
// partitioning function is opaque to JEN (Section 4.3).
//
// db(BF) sends BF_DB to every JEN worker. zigzag-db (ZigzagDBVariant) adds
// §3.4's first HDFS scan: every JEN worker scans with BF_DB, building BF_H
// only, and the union crosses to the database, where it prunes T' before
// the final join; the second scan then ships L' exactly as db(BF) does.
func (e *Engine) runDBSide(ctx context.Context, qs string, q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	n, m := e.jen.Workers(), e.db.Workers()
	tbl, err := e.db.Table(q.DBTable)
	if err != nil {
		return nil, err
	}
	scanPlan, err := e.jen.PlanScan(q.HDFSTable)
	if err != nil {
		return nil, err
	}
	accessPlan := e.accessPlan(tbl, q.DBPred, q.DBProj)

	var bfdb, bfh *bloom.Filter
	var ingestF jen.KeyFilter // the BF_DB a JEN worker holds before its scan
	if alg != DBSide {
		bfdb, err = e.db.BuildBloom(tbl, q.DBPred, q.DBJoinColBase, e.cfg.BloomBits, e.cfg.BloomHashes)
		if err != nil {
			return nil, err
		}
	}
	switch alg {
	case DBSideBloom:
		if err := e.sendFilter(dbName(0), qs+"bfdb", jen.BloomKeyFilter{F: bfdb}, e.jenNames()); err != nil {
			return nil, err
		}
	case ZigzagDBVariant:
		if bfh, err = e.scanBFH(qs, q, scanPlan, bfdb); err != nil {
			return nil, err
		}
		ingestF = jen.BloomKeyFilter{F: bfdb}
	}

	// JEN worker → DB worker grouping (Figure 5). With n ≥ m, the n JEN
	// workers divide into m groups; otherwise JEN worker j feeds DB worker j.
	// zigzag-db deals the JEN workers out round-robin (j mod m), the layout
	// its pinned counters were measured with.
	jenToDB := make([]int, n)
	groupSize := make([]int, m)
	if n >= m && alg != ZigzagDBVariant {
		for i, group := range cluster.Groups(n, m) {
			for _, j := range group {
				jenToDB[j] = i
				groupSize[i]++
			}
		}
	} else {
		for j := 0; j < n; j++ {
			jenToDB[j] = j % m
			groupSize[j%m]++
		}
	}

	strategy := e.dbStrategy(q, tbl, accessPlan)

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row

	for w := 0; w < n; w++ {
		g.Go(func() error {
			return e.jenIngestProgram(ctx, qs, q, scanPlan, w, jenToDB[w], alg == DBSideBloom, ingestF)
		})
	}
	for i := 0; i < m; i++ {
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

// dbStrategy is the database optimizer's final-join choice, from T' and L'
// cardinality estimates (the paper passes a cardinality hint to the
// read_hdfs UDF).
func (e *Engine) dbStrategy(q *plan.JoinQuery, tbl *edw.Table, ap edw.AccessPlan) edw.JoinStrategy {
	estT := int64(float64(tbl.Rows()) * ap.EstSelectivity)
	estL := q.HDFSCardHint
	if estL == 0 {
		if cat, err := e.jen.Catalog().Lookup(q.HDFSTable); err == nil {
			estL = cat.Rows
		}
	}
	return edw.ChooseJoinStrategy(estT, estL, e.db.Workers())
}

// scanBFH is zigzag-db's first HDFS scan: every JEN worker scans with BF_DB
// applied, building BF_H only (nothing is shuffled or shipped), and the
// union of the local filters is BF_H. It runs to completion before anything
// else moves; BF_H's crossing to the m DB workers is charged to bloom.bytes.
func (e *Engine) scanBFH(qs string, q *plan.JoinQuery, scanPlan *jen.ScanPlan, bfdb *bloom.Filter) (*bloom.Filter, error) {
	locals := make([]*bloom.Filter, e.jen.Workers())
	err := par.ForEach(len(locals), func(w int) error {
		locals[w] = bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
		spec := e.hdfsScan(qs, q, scanPlan, w, jen.BloomKeyFilter{F: bfdb})
		spec.BuildKeys = jen.BloomKeyFilter{F: locals[w]}
		return e.jen.ScanFilterBatches(spec, func(*batch.Batch) error { return nil })
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
	e.rec.Add(metrics.BloomBytes, int64(len(bfh.Marshal()))*int64(e.db.Workers()))
	return bfh, nil
}

// hdfsScan is JEN worker w's scan of a two-table query's HDFS table,
// pruned by dbF (BF_DB) when it is set.
func (e *Engine) hdfsScan(qs string, q *plan.JoinQuery, scanPlan *jen.ScanPlan, w int, dbF jen.KeyFilter) jen.ScanSpec {
	spec := jen.ScanSpec{
		Plan: scanPlan, Worker: w, Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
		BloomKeyIdx: q.HDFSWire[q.HDFSWireKey], Threads: e.cfg.WorkerThreads, Mem: e.budget(qs),
	}
	if dbF != nil {
		spec.Cascade = []jen.CascadeFilter{{Filter: dbF, KeyIdx: spec.BloomKeyIdx}}
	}
	return spec
}

// jenIngestProgram is a JEN worker's role in the DB-side join: scan, filter,
// project, apply BF_DB, and stream the surviving batches to its DB worker.
// With recvBF the worker receives BF_DB on the bus (db(BF)); otherwise
// dbF, when set, is the BF_DB zigzag-db's first scan already holds.
func (e *Engine) jenIngestProgram(ctx context.Context, qs string, q *plan.JoinQuery, scanPlan *jen.ScanPlan, w, dbWorker int, recvBF bool, dbF jen.KeyFilter) error {
	me := jenName(w)
	var runErr error
	if recvBF {
		f, err := e.recvFilter(ctx, bloomKeys, me, qs+"bfdb", 1)
		firstErr(&runErr, err)
		dbF = f
	}
	b := e.newBatcher(ctx, me, qs+"ingest", []string{dbName(dbWorker)}, metrics.HDFSSentTuples, metrics.HDFSSentBytes, w)
	if runErr == nil {
		firstErr(&runErr, e.jen.ScanFilterBatches(e.hdfsScan(qs, q, scanPlan, w, dbF), func(sb *batch.Batch) error {
			return b.sendBatch(sb, q.HDFSWire)
		}))
	}
	firstErr(&runErr, b.CloseWith(runErr))
	return runErr
}

// materialize filters and projects worker w's partition of tbl into cloned
// batches: the T' (or dimension) a DB program must hold before it can route
// it — for a Bloom filter still to arrive, a switch decision, or a DB-side
// pre-join.
func (e *Engine) materialize(tbl *edw.Table, w int, ap edw.AccessPlan, proj []int) ([]*batch.Batch, error) {
	var out []*batch.Batch
	err := e.db.FilterProjectBatches(tbl, w, ap, proj, e.cfg.BatchRows, e.cfg.WorkerThreads, keepBatches(&out))
	return out, err
}

// dbJoinProgram is a DB worker's role in the DB-side join. It always
// completes the wire protocol (EOS to every peer) before reporting errors.
// bfh, when set, further prunes the local T' (zigzag-db); db and db(BF)
// pass nil.
func (e *Engine) dbJoinProgram(ctx context.Context, qs string, q *plan.JoinQuery, tbl *edw.Table, ap edw.AccessPlan, strategy edw.JoinStrategy, i, m, ingestSenders int, bfh *bloom.Filter) ([]types.Row, error) {
	me := dbName(i)
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx

	// Local T' first. It is materialized: depending on the strategy it is
	// inserted locally, reshuffled or broadcast, and the zigzag variant
	// prunes it with BF_H before any of that.
	tw, err := e.materialize(tbl, i, ap, q.DBProj)
	pr.fail(err)
	if err == nil && bfh != nil {
		e.db.ApplyBloomBatches(tw, q.DBWireKey, bfh)
	}

	// Background receivers registered before anything is sent. Their errors
	// abort the program context (bgFail), so a failed receiver also unblocks
	// its sibling and the ingest loop below.
	bud := e.budget(qs)
	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)
	// The combined layout is HDFS wire ++ DB wire: the build rows, T', are
	// its right part.
	st := e.newJoinStage(qs, i, joinSite{pred: q.PostJoin, leftWidth: len(q.HDFSWire), probeLeft: true, key: q.DBWireKey, agg: agg})
	defer st.close()
	var lbatches []*batch.Batch
	var bg par.Group

	switch strategy {
	case edw.RepartitionBoth, edw.BroadcastDB:
		// The hash table holds T' rows arriving on the treshuf stream.
		bg.Go(func() error {
			err := e.receive(ctx, me, qs+"treshuf", m, false, st.insert)
			pr.bgFail(err)
			return err
		})
	case edw.BroadcastIngested:
		// The hash table is the local T' partition; no T reshuffle.
		for _, b := range tw {
			if err := st.insert(b); err != nil {
				pr.fail(err)
				break
			}
		}
	}
	if strategy != edw.BroadcastDB {
		// HDFS batches arrive reshuffled/broadcast on lreshuf.
		bg.Go(func() error {
			err := e.receive(ctx, me, qs+"lreshuf", m, false, keepBatches(&lbatches))
			pr.bgFail(err)
			return err
		})
	}

	// Ship T' per strategy: scattered by the agreed hash or broadcast.
	route := hashRoute(m)
	if strategy != edw.BroadcastIngested {
		tb := e.newBatcher(ctx, me, qs+"treshuf", e.dbNames(), metrics.DBReshuffleTuples, metrics.DBReshuffleBytes, i)
		if runErr == nil {
			pr.fail(eachBatch(tw)(func(b *batch.Batch) error {
				if strategy == edw.RepartitionBoth {
					return tb.scatterBatch(b, nil, q.DBWireKey, nil, route)
				}
				return tb.sendBatch(b, nil)
			}))
		}
		pr.fail(tb.CloseWith(runErr))
	}

	// Ingest the HDFS stream from this worker's JEN group, forwarding per
	// strategy; pipelined — batches are forwarded as they arrive.
	switch strategy {
	case edw.RepartitionBoth, edw.BroadcastIngested:
		// Each ingested row is counted once, even where it is replicated to
		// every worker (the bus and byte counter see every copy).
		lb := e.newBatcher(ctx, me, qs+"lreshuf", e.dbNames(), "", metrics.DBIngestBytes, i)
		forward := func(b *batch.Batch) error { return lb.sendBatch(b, nil) }
		if strategy == edw.RepartitionBoth {
			forward = func(b *batch.Batch) error { return lb.scatterBatch(b, nil, q.HDFSWireKey, nil, route) }
		}
		var ingested int64
		pr.fail(e.receive(ctx, me, qs+"ingest", ingestSenders, true, func(b *batch.Batch) error {
			ingested += int64(b.Len())
			return forward(b)
		}))
		pr.fail(lb.CloseWith(runErr))
		e.rec.AddAt(metrics.DBIngestTuples, i, ingested)
	case edw.BroadcastDB:
		// No forwarding: buffer the ingested batches locally.
		pr.fail(e.receive(ctx, me, qs+"ingest", ingestSenders, false, keepBatches(&lbatches)))
		e.rec.AddAt(metrics.DBIngestTuples, i, liveRows(lbatches))
	}

	pr.fail(bg.Wait())
	pr.fail(st.seal())
	charged := chargeBatches(bud, lbatches)
	defer bud.Release(charged)

	// Probe: HDFS batches against the T' hash table. Combined layout is
	// HDFS wire ++ DB wire; the post-join predicate and partial aggregation
	// run batch-at-a-time through the combiner. The partials converge on
	// db/0, which produces the result.
	if runErr == nil {
		pr.fail(st.probeAll(lbatches, q.HDFSWireKey, 1))
	}
	return e.finishAggregation(ctx, qs, agg, i, true, runErr)
}
