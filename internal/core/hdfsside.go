package core

import (
	"context"
	"slices"

	"hybridwh/internal/batch"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

func dbName(i int) string  { return cluster.DBName(i) }
func jenName(i int) string { return cluster.JENName(i) }

// firstErr keeps the first non-nil error.
func firstErr(dst *error, err error) {
	if *dst == nil && err != nil {
		*dst = err
	}
}

// runHDFSSide executes the repartition join (± Bloom filter), the zigzag
// join and the semijoin: the final join happens on the HDFS side, with both
// systems routing rows by the agreed hash function (Figures 3 and 4). dbF
// is the kind of the DB → JEN filter and hF that of the JEN → DB filter:
// none for repartition, BF_DB only for repartition(BF), Bloom filters both
// ways for zigzag, exact key sets both ways for the semijoin.
func (e *Engine) runHDFSSide(ctx context.Context, qs string, q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	var dbF, hF filterKind
	switch alg {
	case RepartitionBloom:
		dbF = bloomKeys
	case Zigzag:
		dbF, hF = bloomKeys, bloomKeys
	case SemiJoin:
		dbF, hF = exactKeys, exactKeys
	}
	n, m := e.jen.Workers(), e.db.Workers()

	tbl, scanPlan, accessPlan, err := e.resolve(q)
	if err != nil {
		return nil, err
	}

	// Steps 1–2: build the global BF_DB and send it to every JEN worker.
	// This is blocking — everything on the HDFS side depends on it.
	if dbF != noFilter {
		f, err := e.buildDBFilter(dbF, tbl, q)
		if err != nil {
			return nil, err
		}
		toJEN, _, _ := dbF.streams()
		if err := e.sendFilter(dbName(0), qs+toJEN, f, e.jenNames()); err != nil {
			return nil, err
		}
	}

	// Mid-query switching (Config.AdaptiveSwitch): the designated worker's
	// decision lands in decided for the facade to surface on the Result. Only
	// that one program writes it, and it is read after the programs join.
	var decided *adaptDecision
	rows, err := e.runPrograms(ctx, qs, func(ctx context.Context, i int) error {
		return e.dbShipProgram(ctx, qs, q, tbl, accessPlan, i, n, hF)
	}, func(ctx context.Context, w int) error {
		return e.jenRepartitionProgram(ctx, qs, q, scanPlan, w, n, m, dbF, hF, &decided)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: rows}
	if decided != nil {
		res.SwitchReason = decided.reason
		if decided.kind != keepPlan {
			res.Switched = true
			res.SwitchedTo = decided.kind.String()
		}
	}
	return res, nil
}

// runPrograms runs a query's worker programs — db on every DB worker, jen on
// every JEN worker — in one group, under a context the first failure cancels
// (see abort.go), and returns the final aggregate the designated JEN worker
// sends to one DB node (step 9 of Figures 2–4).
func (e *Engine) runPrograms(ctx context.Context, qs string, db, jen func(ctx context.Context, worker int) error) ([]types.Row, error) {
	g, ctx := par.WithContext(ctx)
	var rows []types.Row
	g.Go(func() error { return e.receive(ctx, dbName(0), qs+"final", 1, false, appendRows(&rows)) })
	for i := 0; i < e.db.Workers(); i++ {
		g.Go(func() error { return db(ctx, i) })
	}
	for w := 0; w < e.jen.Workers(); w++ {
		g.Go(func() error { return jen(ctx, w) })
	}
	err := g.Wait()
	return rows, err
}

// dbShipProgram is one DB worker's side of the repartition/zigzag join:
// filter and project T locally, optionally wait for the hF filter (BF_H or
// the semijoin's L' key set) and apply it (zigzag steps 4–5), then route T'
// rows directly to the JEN workers that will join them (step 6), using the
// agreed hash function.
func (e *Engine) dbShipProgram(ctx context.Context, qs string, q *plan.JoinQuery, tbl *edw.Table, ap edw.AccessPlan, i, n int, hF filterKind) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	route := hashRoute(n)
	b := e.newBatcher(ctx, dbName(i), qs+"dbrows", e.jenNames(), metrics.DBSentTuples, metrics.DBSentBytes, i)
	adaptOn := e.cfg.AdaptiveSwitch

	if hF == noFilter && !adaptOn {
		// Nothing to wait for: T' streams out batch-at-a-time as the
		// partition scan produces it.
		pr.fail(e.db.FilterProjectBatches(tbl, i, ap, q.DBProj, e.cfg.BatchRows, e.cfg.WorkerThreads, func(fb *batch.Batch) error {
			return b.scatterBatch(fb, nil, q.DBWireKey, nil, route)
		}))
		pr.fail(b.CloseWith(runErr))
		return runErr
	}

	// T' must be materialized: zigzag's BF_H arrives only after the whole
	// HDFS scan completes and prunes what is shipped (steps 4–5), and the
	// adaptive layer routes T' only once the switch decision lands — hash
	// home, hybrid scatter, or full broadcast. On a failure every receive
	// below runs under the aborted program context, so the protocol
	// obligations (observation fan-in, BF_H and decision drains, MsgError to
	// the JEN workers) complete without blocking.
	tw, err := e.materialize(tbl, i, ap, q.DBProj)
	pr.fail(err)
	if adaptOn {
		// The snapshot goes out before the BF_H wait (see adaptObserveT);
		// |T'| is reported pre-pruning — an upper bound, which is what the
		// committed plan would ship if BF_H turned out useless.
		e.adaptObserveT(pr, qs, q, i, liveRows(tw))
	}
	if hF != noFilter {
		_, _, toDB := hF.streams()
		f, err := e.recvFilter(ctx, hF, dbName(i), qs+toDB, 1)
		pr.fail(err)
		if err == nil {
			e.pruneT(tw, q.DBWireKey, f)
		}
	}
	if adaptOn {
		e.adaptRouteT(ctx, pr, qs, q, b, i, tw, route, &runErr)
	} else if runErr == nil {
		pr.fail(b.scatterBatches(tw, q.DBWireKey, nil, route))
	}
	pr.fail(b.CloseWith(runErr))
	return runErr
}

// jenRepartitionProgram is one JEN worker's side of the repartition/zigzag
// join, implementing the Figure 7 pipeline: receive BF_DB (the dbF filter),
// scan/filter/shuffle while concurrently building the hash table from
// received rows and buffering database rows in the background, then probe,
// partially aggregate, and participate in the global aggregation.
func (e *Engine) jenRepartitionProgram(ctx context.Context, qs string, q *plan.JoinQuery, scanPlan *jen.ScanPlan, w, n, m int, dbF, hF filterKind, decided **adaptDecision) error {
	me := jenName(w)
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx

	// Blocking: wait for the database filter (zigzag step 2).
	var dbFilter jen.KeyFilter
	if dbF != noFilter {
		toJEN, _, _ := dbF.streams()
		f, err := e.recvFilter(ctx, dbF, me, qs+toJEN, 1)
		pr.fail(err)
		dbFilter = f
	}

	// Background receivers start before any sending to keep the shuffle
	// deadlock-free: the hash table builds from shuffled rows as they
	// arrive, and database rows are buffered as they arrive (Section 4.4).
	// Under a query budget, the build side spills partitions to disk
	// instead of growing without bound.
	bud := e.budget(qs)
	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)
	site := twoTable(q, false, agg)
	site.spill = true
	st := e.newJoinStage(qs, w, site)
	defer st.close()
	var dbBatches []*batch.Batch
	// Receiver errors abort the program context (bgFail): if one receiver
	// hits an incoming MsgError, its sibling and the rest of the program must
	// not keep waiting for streams a dead peer will never finish.
	var bg par.Group
	bg.Go(func() error {
		var recv int64
		err := e.receive(ctx, me, qs+"shuffle", n, false, func(b *batch.Batch) error {
			recv += int64(b.Len())
			return st.insert(b)
		})
		e.rec.AddAt(metrics.JENRecvTuples, w, recv)
		pr.bgFail(err)
		return err
	})
	bg.Go(func() error {
		err := e.receive(ctx, me, qs+"dbrows", m, false, keepBatches(&dbBatches))
		pr.bgFail(err)
		return err
	})

	// Scan + process + send, all pipelined; the scan fills BF_H (or the L'
	// key set) as it goes.
	var hKeys joinFilter
	if hF != noFilter {
		hKeys = e.newFilter(hF)
	}
	b := e.newBatcher(ctx, me, qs+"shuffle", e.jenNames(), metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	scanKey := q.HDFSWire[q.HDFSWireKey]
	route := hashRoute(n)
	spec := jen.ScanSpec{
		Plan: scanPlan, Worker: w,
		Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
		DBFilter: dbFilter, BuildKeys: hKeys, BloomKeyIdx: scanKey,
		// Morsel workers filter, bloom-probe and shuffle concurrently; the
		// shared batcher keeps message counts deterministic.
		Threads: e.cfg.WorkerThreads,
		Mem:     bud,
	}
	// Plain hash routing is the committed default; under the adaptive layer
	// the worker buffers, observes and polls for the switch decision, and
	// routing starts the moment the decision lands (see adaptive.go).
	var aw *adaptJENWorker
	if e.cfg.AdaptiveSwitch {
		watch, werr := e.watchDecision(me, qs+"adapt.dec")
		pr.fail(werr)
		if werr == nil {
			defer watch.close()
			aw = &adaptJENWorker{
				e: e, qs: qs, me: me, q: q, b: b, w: w, n: n,
				scanKey: scanKey, watch: watch, route: route,
				sketch: skew.NewSketch(sketchKeys),
			}
			spec.Progress = &aw.progress
		}
	}
	if runErr == nil {
		onBatch := func(sb *batch.Batch) error {
			return b.scatterBatch(sb, q.HDFSWire, scanKey, nil, route)
		}
		if aw != nil {
			onBatch = aw.onBatch
		}
		pr.fail(e.jen.ScanFilterBatches(spec, onBatch))
	}
	if aw != nil {
		// Complete the switch handshake: contribute this worker's snapshot
		// (even when failing), coordinate at the designated worker, then
		// apply the decision — flushing the buffered batches for keep and
		// hybrid, or retaining them for the local broadcast probe below.
		aw.finish(ctx, pr, scanPlan.Table.Rows, int64(16*len(q.HDFSWire)), decided)
	}
	pr.fail(b.CloseWith(runErr))

	// Zigzag steps 3b–4: local BF_H to the designated worker; the
	// designated worker unions them and broadcasts BF_H to the database.
	// The (possibly partial) filter is sent even on the error path so the
	// fan-in completes; the query's failure travels via MsgError and the
	// context.
	if hF != noFilter {
		_, fanIn, toDB := hF.streams()
		desig := e.jen.DesignatedWorker()
		pr.fail(e.sendFilter(me, qs+fanIn, hKeys, []string{jenName(desig)}))
		if w == desig {
			global, err := e.recvFilter(ctx, hF, me, qs+fanIn, n)
			pr.fail(err)
			if global == nil {
				global = e.newFilter(hF)
			}
			pr.fail(e.sendFilter(me, qs+toDB, global, e.dbNames()))
		}
	}

	// Wait for the hash table and the buffered database rows. The buffered
	// probe side is charged to the query budget for the probe's duration
	// (the build side's table accounts for itself).
	pr.fail(bg.Wait())
	pr.fail(st.seal())
	charged := chargeBatches(bud, dbBatches)
	defer bud.Release(charged)

	if aw != nil && aw.decided() == switchBroadcast {
		// Broadcast switch: the shuffle carried no rows (the L' table stayed
		// empty) and dbBatches hold the full broadcast T'. The buffered L'
		// joins it locally through runBroadcast's join site, so the adapted
		// result is exactly what a statically planned broadcast produces.
		if runErr == nil {
			bst := e.newJoinStage(qs, w, twoTable(q, true, agg))
			for _, b := range dbBatches {
				pr.fail(bst.insert(b))
			}
			pr.fail(bst.seal())
			if runErr == nil {
				pr.fail(bst.probeAll(aw.takeBuffered(), q.HDFSWireKey, 1))
			}
			bst.close()
		}
	} else if runErr == nil {
		// Probe with the database rows; combined layout is HDFS wire ++ DB wire.
		pr.fail(st.probeAll(dbBatches, q.DBWireKey, e.cfg.WorkerThreads))
	}
	_, err := e.finishAggregation(ctx, qs, agg, w, false, runErr)
	return err
}

// finishAggregation is the one aggregation fan-in (steps 7–9 of Figures
// 1–4): every worker ships its partial aggregate to the designated worker —
// db/0 on the DB side, the designated JEN worker on the HDFS side — which
// folds the partials into the final groups as they arrive. On the HDFS side
// the designated worker sends the final rows on to a single DB node; on the
// DB side db/0 returns them. w is the worker's index on its side. It always
// completes the protocol, releases the partial aggregate's budget charge and
// reports runErr.
func (e *Engine) finishAggregation(ctx context.Context, qs string, agg *relop.HashAgg, w int, dbSide bool, runErr error) ([]types.Row, error) {
	defer func() { e.budget(qs).Release(agg.MemBytes()) }()
	// A worker that arrives here already failing must not block in the
	// aggregation fan-in waiting for partials that will never come: the
	// program context is aborted up front, so the receives below fail fast
	// while MsgError and the per-query teardown reach the peers.
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	pr.fail(runErr)
	me, desig, senders := jenName(w), jenName(e.jen.DesignatedWorker()), e.jen.Workers()
	if dbSide {
		me, desig, senders = dbName(w), dbName(0), e.db.Workers()
	}
	pb := e.newBatcher(ctx, me, qs+"partial", []string{desig}, "", "", w)
	if runErr == nil {
		pr.fail(pb.sendBatch(rowsBatch(agg.PartialRows()...), nil))
	}
	pr.fail(pb.CloseWith(runErr))
	if me != desig {
		return nil, runErr
	}

	final := agg.Sibling()
	var row types.Row
	pr.fail(e.receive(ctx, me, qs+"partial", senders, false, func(b *batch.Batch) error {
		return b.Each(func(i int) error {
			row = b.RowAt(i, row)
			return final.MergePartial(row)
		})
	}))
	rows := final.FinalRows()
	e.rec.Add(metrics.AggGroups, int64(len(rows)))
	if dbSide {
		return rows, runErr
	}
	fb := e.newBatcher(ctx, me, qs+"final", []string{dbName(0)}, "", "", w)
	if runErr == nil {
		pr.fail(fb.sendBatch(rowsBatch(rows...), nil))
	}
	pr.fail(fb.CloseWith(runErr))
	return nil, runErr
}

// appendRows is a receive sink that appends a copy of every row to *dst: the
// query result at the DB node.
func appendRows(dst *[]types.Row) func(*batch.Batch) error {
	return func(b *batch.Batch) error {
		*dst = append(*dst, b.Rows()...)
		return nil
	}
}

// rowsBatch packs materialized rows — relop.HashAgg's partial and final
// groups — into one batch for a batcher.
func rowsBatch(rows ...types.Row) *batch.Batch {
	if len(rows) == 0 {
		return batch.New(0, 0)
	}
	b := batch.New(len(rows[0]), len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// resolve looks up a two-table query's inputs: the DB table, the HDFS scan
// plan and the optimizer's access plan for T'.
func (e *Engine) resolve(q *plan.JoinQuery) (*edw.Table, *jen.ScanPlan, edw.AccessPlan, error) {
	tbl, err := e.db.Table(q.DBTable)
	if err != nil {
		return nil, nil, edw.AccessPlan{}, err
	}
	scanPlan, err := e.jen.PlanScan(q.HDFSTable)
	if err != nil {
		return nil, nil, edw.AccessPlan{}, err
	}
	return tbl, scanPlan, e.accessPlan(tbl, q.DBPred, q.DBProj), nil
}

// accessPlan plans a filtered projection of tbl; the optimizer sees every
// column the predicate and the projection touch.
func (e *Engine) accessPlan(tbl *edw.Table, pred expr.Expr, proj []int) edw.AccessPlan {
	return e.db.PlanAccess(tbl, pred, append(expr.ColumnSet(pred), proj...))
}

// runBroadcast executes the HDFS-side broadcast join (Figure 2): every DB
// worker broadcasts its filtered partition to every JEN worker, which joins
// it against its local share of the HDFS scan — no HDFS shuffle at all.
//
// Two transfer schemes exist (Section 4.3): the default ships every DB
// worker's rows directly to all JEN workers; with Config.BroadcastRelay each
// DB worker ships to exactly one JEN worker, which relays to the rest.
func (e *Engine) runBroadcast(ctx context.Context, qs string, q *plan.JoinQuery) (*Result, error) {
	n, m := e.jen.Workers(), e.db.Workers()
	relay := e.cfg.BroadcastRelay
	tbl, scanPlan, accessPlan, err := e.resolve(q)
	if err != nil {
		return nil, err
	}

	// Relay mode: DB worker i feeds JEN worker i%n; directSenders counts
	// the DB workers feeding each JEN worker.
	directSenders := make([]int, n)
	for i := 0; i < m; i++ {
		directSenders[i%n]++
	}

	rows, err := e.runPrograms(ctx, qs, func(ctx context.Context, i int) error {
		// Tuples are counted once per row, not once per copy: the
		// expensive per-row UDF read happens once, and the fan-out to
		// every JEN worker is cheap replication (bytes are counted per
		// copy by the bus and the byte counter).
		dests := e.jenNames()
		if relay {
			dests = []string{jenName(i % n)}
		}
		b := e.newBatcher(ctx, dbName(i), qs+"dbrows", dests, "", metrics.DBSentBytes, i)
		var sent int64
		err := e.db.FilterProjectBatches(tbl, i, accessPlan, q.DBProj, e.cfg.BatchRows, e.cfg.WorkerThreads, func(fb *batch.Batch) error {
			sent += int64(fb.Len())
			return b.sendBatch(fb, nil)
		})
		firstErr(&err, b.CloseWith(err))
		e.rec.AddAt(metrics.DBSentTuples, i, sent)
		return err
	}, func(ctx context.Context, w int) error {
		me := jenName(w)
		var runErr error
		bud := e.budget(qs)
		agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
		agg.SetBudget(bud)
		// Build the hash table from the broadcast T' first: local joins
		// need the whole filtered database table.
		st := e.newJoinStage(qs, w, twoTable(q, true, agg))
		defer st.close()
		if relay {
			firstErr(&runErr, e.broadcastRelayRecv(ctx, qs, me, w, n, directSenders[w], st.insert))
		} else {
			firstErr(&runErr, e.receive(ctx, me, qs+"dbrows", m, false, st.insert))
		}
		firstErr(&runErr, st.seal())

		// Scan and probe in the pipeline; partial aggregation inline.
		// Probe rows never leave the scan batch: the wire projection is
		// materialized only for rows with a non-empty bucket. Morsel
		// workers scan and filter concurrently and serialize on the
		// combiner; totals are independent of the interleaving.
		if runErr == nil {
			scanKey := q.HDFSWire[q.HDFSWireKey]
			firstErr(&runErr, e.jen.ScanFilterBatches(jen.ScanSpec{
				Plan: scanPlan, Worker: w,
				Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
				Threads: e.cfg.WorkerThreads,
				Mem:     bud,
			}, func(sb *batch.Batch) error {
				return st.probe(sb, scanKey, q.HDFSWire)
			}))
			firstErr(&runErr, st.finish())
		}
		_, err := e.finishAggregation(ctx, qs, agg, w, false, runErr)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rows: rows}, nil
}

// broadcastRelayRecv implements the JEN side of the relay scheme: batches
// from this worker's DB feeders go into the hash table (insert) AND onward to
// every other JEN worker; batches relayed by peers complete the table. The
// relay stream drains in the background while the direct stream, whose
// callback relays, is received in the foreground; insert must be safe for
// the two at once.
func (e *Engine) broadcastRelayRecv(ctx context.Context, qs, me string, w, n, directSenders int, insert func(*batch.Batch) error) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	others := slices.DeleteFunc(e.jenNames(), func(name string) bool { return name == me })
	var bg par.Group
	bg.Go(func() error {
		err := e.receive(ctx, me, qs+"relay", n-1, false, insert)
		pr.bgFail(err)
		return err
	})
	rb := e.newBatcher(ctx, me, qs+"relay", others, metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	pr.fail(e.receive(ctx, me, qs+"dbrows", directSenders, true, func(b *batch.Batch) error {
		if err := insert(b); err != nil {
			return err
		}
		return rb.sendBatch(b, nil)
	}))
	pr.fail(rb.CloseWith(runErr))
	pr.fail(bg.Wait())
	return runErr
}
