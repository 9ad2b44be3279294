package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// This file is the N-way star/snowflake join executor: the analyzer's
// plan.MultiQuery runs as a pipeline of two-table join stages on the JEN
// workers. Each dimension component is materialized database-side first
// (snowflake sub-dimensions pre-joined there, where the tables are
// co-located), its Bloom filter is built from the rows that actually
// survive, and every filter is cascaded into the single fact scan — so the
// fact table is reduced by ALL dimensions before the first byte is
// shuffled, the multi-join generalization of the paper's zigzag idea.

// EdgeSummary reports one executed join edge of a multi-join query.
type EdgeSummary struct {
	Dim       string
	Algorithm plan.EdgeAlg
	Bloom     bool
	// Switched reports the adaptive layer replaced this edge's committed
	// repartition with a broadcast mid-query; SwitchReason carries the
	// observed statistics and re-costs that justified it.
	Switched     bool
	SwitchReason string
}

// MultiResult is a completed multi-join query, returned at the database
// side like Result.
type MultiResult struct {
	Rows   []types.Row
	Schema types.Schema
	Edges  []EdgeSummary
	// Metrics is a snapshot of the counters accumulated during the run.
	Metrics map[string]int64
}

// RunMulti executes an analyzed multi-join query. The fact table streams
// from HDFS; every dimension edge joins with its independently chosen
// algorithm.
func (e *Engine) RunMulti(q *plan.MultiQuery) (*MultiResult, error) {
	return e.RunMultiCtx(context.Background(), q)
}

// RunMultiCtx is RunMulti under a caller-supplied context, with RunCtx's
// cancellation semantics.
func (e *Engine) RunMultiCtx(ctx context.Context, q *plan.MultiQuery) (*MultiResult, error) {
	return e.RunMultiOpts(ctx, q, RunOpts{})
}

// RunMultiOpts is RunMultiCtx with per-run options; RunOpts{} reproduces
// RunMultiCtx exactly.
func (e *Engine) RunMultiOpts(ctx context.Context, q *plan.MultiQuery, opts RunOpts) (*MultiResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	qs, done, err := e.begin(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer done()
	res, err := e.runMulti(ctx, qs, q)
	if err != nil {
		return nil, fmt.Errorf("core: multi-join query aborted: %w", err)
	}
	res.Schema = q.OutputSchema
	res.Metrics = e.rec.Snapshot()
	return res, nil
}

// dimMat is one materialized dimension component: the DB workers'
// filter/project (and snowflake pre-join) output, partitioned as stored.
type dimMat struct {
	parts [][]*batch.Batch // per DB worker, component wire batches
}

// mstream names a per-edge stream: qs + "dim0", qs + "bf2", ...
func mstream(qs, kind string, edge int) string {
	return fmt.Sprintf("%s%s%d", qs, kind, edge)
}

func (e *Engine) runMulti(ctx context.Context, qs string, q *plan.MultiQuery) (*MultiResult, error) {
	n, m := e.jen.Workers(), e.db.Workers()
	scanPlan, err := e.jen.PlanScan(q.FactTable)
	if err != nil {
		return nil, err
	}

	// Phase A (blocking, like the two-table BF_DB build): materialize every
	// dimension component database-side. Snowflake sub-dimensions join
	// here, where both tables live; the Bloom filter of each component is
	// built from the surviving rows — so a selective sub-dimension
	// predicate tightens the fact-scan cascade too.
	dims := make([]*dimMat, len(q.Edges))
	bud := e.budget(qs)
	var charged int64
	defer func() { bud.Release(charged) }()
	for ei := range q.Edges {
		ed := &q.Edges[ei]
		dm, err := e.materializeDim(ed)
		if err != nil {
			return nil, err
		}
		dims[ei] = dm
		for _, part := range dm.parts {
			charged += chargeBatches(bud, part)
		}
		if ed.UseBloom {
			bf := bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
			for _, part := range dm.parts {
				for _, b := range part {
					keys := b.Col(ed.DimKeyWire)
					_ = b.Each(func(i int) error {
						bf.AddHash(types.BloomHashKey(keys[i].Int()))
						return nil
					})
				}
			}
			e.rec.Add(metrics.BloomBuildKeys, int64(bf.EstimateCardinality()))
			if err := e.sendFilter(dbName(0), mstream(qs, "bf", ei), jen.BloomKeyFilter{F: bf}, e.jenNames()); err != nil {
				return nil, err
			}
		}
	}

	// Adaptive gating: repartition edges past the first re-cost against a
	// broadcast once the true intermediate size is observed (the committed
	// plan sized them from estimates that compound error edge over edge).
	// Only the designated JEN worker writes switched (edge → reason, "" when
	// kept), and the facade reads it after the programs have joined.
	gated := make([]bool, len(q.Edges))
	switched := make([]string, len(q.Edges))
	if e.cfg.AdaptiveSwitch {
		for ei := range q.Edges {
			gated[ei] = ei > 0 && q.Edges[ei].Algorithm == plan.EdgeRepartition
		}
	}

	rows, err := e.runPrograms(ctx, qs, func(ctx context.Context, i int) error {
		return e.multiDBProgram(ctx, qs, q, dims, i, n, gated)
	}, func(ctx context.Context, w int) error {
		return e.multiJENProgram(ctx, qs, q, scanPlan, w, n, m, gated, switched)
	})
	if err != nil {
		return nil, err
	}

	res := &MultiResult{Rows: rows}
	for ei, ed := range q.Edges {
		s := EdgeSummary{Dim: ed.Dim.Table, Algorithm: ed.Algorithm, Bloom: ed.UseBloom}
		if switched[ei] != "" {
			s.Switched = true
			s.Algorithm = plan.EdgeBroadcast
			s.SwitchReason = switched[ei]
		}
		res.Edges = append(res.Edges, s)
	}
	return res, nil
}

// materializeDim filters and projects one dimension component on every DB
// worker, pre-joining a snowflake sub-dimension DB-side when the plan has
// one. The output rows follow the component's wire layout: parent
// projection, then (for snowflake components) the sub-dimension's.
func (e *Engine) materializeDim(ed *plan.EdgeExec) (*dimMat, error) {
	tbl, err := e.db.Table(ed.Dim.Table)
	if err != nil {
		return nil, err
	}
	ap := e.accessPlan(tbl, ed.Dim.Pred, ed.Dim.Proj)

	// Snowflake: materialize the (small) sub-dimension fully and hash it on
	// its join key so every parent partition can probe it locally.
	var subHT *relop.HashTable
	if sub := ed.Dim.Sub; sub != nil {
		subTbl, err := e.db.Table(sub.Table)
		if err != nil {
			return nil, err
		}
		subAp := e.accessPlan(subTbl, sub.Pred, sub.Proj)
		subHT = relop.NewHashTable(0) // sub wire leads with its join key
		subParts := make([][]*batch.Batch, e.db.Workers())
		err = par.ForEach(e.db.Workers(), func(w int) error {
			bs, err := e.materialize(subTbl, w, subAp, sub.Proj)
			subParts[w] = bs
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, bs := range subParts {
			for _, b := range bs {
				if err := subHT.InsertBatch(b); err != nil {
					return nil, err
				}
			}
		}
		subHT.Build()
	}

	dm := &dimMat{parts: make([][]*batch.Batch, e.db.Workers())}
	var dimJoined atomic.Int64
	err = par.ForEach(e.db.Workers(), func(w int) error {
		bs, err := e.materialize(tbl, w, ap, ed.Dim.Proj)
		if err != nil || subHT == nil {
			dm.parts[w] = bs
			return err
		}
		cmb := newCombiner(e.cfg.BatchRows, nil, nil, true, keepBatches(&dm.parts[w]))
		for _, b := range bs {
			if err := cmb.probe(subHT, b, ed.Dim.Sub.ParentFKWire, nil); err != nil {
				return err
			}
		}
		err = cmb.flush()
		dimJoined.Add(cmb.output)
		return err
	})
	if err != nil {
		return nil, err
	}
	if subHT != nil {
		e.rec.Add(metrics.DBDimJoinTuples, dimJoined.Load())
	}
	return dm, nil
}

// multiDBProgram is one DB worker's side of the multi-join: ship each
// materialized dimension partition to the JEN workers, edge by edge —
// broadcast to all, or scattered by the agreed hash function. Gated edges
// wait for the designated JEN worker's keep-vs-broadcast decision first.
func (e *Engine) multiDBProgram(ctx context.Context, qs string, q *plan.MultiQuery, dims []*dimMat, i, n int, gated []bool) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	route := hashRoute(n)
	for ei := range q.Edges {
		ed := &q.Edges[ei]
		b := e.newBatcher(ctx, dbName(i), mstream(qs, "dim", ei), e.jenNames(), metrics.DBSentTuples, metrics.DBSentBytes, i)
		alg := ed.Algorithm
		if gated[ei] {
			var d int64
			err := e.recvControl(ctx, dbName(i), netsim.MsgControl, mstream(qs, "dec", ei), 1, addCtl(&d))
			pr.fail(err)
			if err == nil && switchKind(d) == switchBroadcast {
				alg = plan.EdgeBroadcast
			}
		}
		if runErr == nil {
			part := dims[ei].parts[i]
			if alg == plan.EdgeBroadcast {
				pr.fail(b.sendBatches(part))
			} else {
				pr.fail(b.scatterBatches(part, ed.DimKeyWire, nil, route))
			}
		}
		// Closed even when failing so every JEN receiver learns the fate of
		// this worker's stream instead of waiting on it.
		pr.fail(b.CloseWith(runErr))
	}
	return runErr
}

// multiJENProgram is one JEN worker's side of the multi-join: receive the
// cascaded Bloom filters, scan the fact table once with every filter
// applied, then run the join edges as pipeline stages and finish with the
// shared aggregation fan-in.
//
// The stages stream. A repartition edge builds its dimension share first,
// then probes each batch of its shuffle stream as it arrives, while the
// batch is still on loan, and its combiner scatters every output batch
// straight into the next edge's shuffle; the last edge folds into the
// partial aggregate. An intermediate is held whole only where the plan needs
// all of it first: the input of a broadcast edge, whose full dimension
// arrives after it, and of a gated edge, whose observation counts it. A held
// intermediate is charged to the budget until the next stage replaces it.
func (e *Engine) multiJENProgram(ctx context.Context, qs string, q *plan.MultiQuery, scanPlan *jen.ScanPlan, w, n, m int, gated []bool, switched []string) error {
	me := jenName(w)
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	bud := e.budget(qs)
	var stages []*joinStage // their dimension builds are held to the end
	defer func() {
		for _, st := range stages {
			st.close()
		}
	}()
	route := hashRoute(n)
	desig := e.jen.DesignatedWorker()

	// shuffle opens this worker's side of edge ei's shuffle stream.
	shuffle := func(ei int) *batcher {
		return e.newBatcher(ctx, me, mstream(qs, "shuffle", ei), e.jenNames(), metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	}
	// The held intermediate, its row count and its budget charge.
	var held []*batch.Batch
	var heldRows, heldBytes int64
	defer func() { bud.Release(heldBytes) }()
	hold := func(bs []*batch.Batch) {
		bud.Release(heldBytes)
		held, heldRows, heldBytes = bs, liveRows(bs), chargeBatches(bud, bs)
	}
	// feed opens edge ei's input for the stage before it (the fact scan
	// before edge 0). put takes that stage's output batches, projected
	// through proj (nil: as they are), and is safe for the scan's
	// concurrent morsel threads. A repartition edge no decision can turn
	// into a broadcast streams: put scatters straight into its shuffle and
	// end closes it. Any other edge needs its input whole: put copies, and
	// end holds the copies.
	feed := func(ei int, proj []int) (put func(*batch.Batch) error, end func()) {
		if ed := &q.Edges[ei]; ed.Algorithm == plan.EdgeRepartition && !gated[ei] {
			b, key := shuffle(ei), ed.FactKeyCol
			if proj != nil {
				key = proj[key]
			}
			return func(src *batch.Batch) error { return b.scatterBatch(src, proj, key, nil, route) },
				func() { pr.fail(b.CloseWith(runErr)) }
		}
		var mu sync.Mutex
		var kept []*batch.Batch
		return func(src *batch.Batch) error {
			wb := batch.New(projWidth(src, proj), src.Len())
			err := src.Each(func(i int) error {
				wb.AppendFrom(src, i, proj)
				return nil
			})
			mu.Lock()
			kept = append(kept, wb)
			mu.Unlock()
			return err
		}, func() { hold(kept) }
	}

	// Blocking: the cascaded dimension Bloom filters, in edge order (the
	// multi-join counterpart of the two-table BF_DB wait).
	var cascade []jen.CascadeFilter
	for ei := range q.Edges {
		if !q.Edges[ei].UseBloom {
			continue
		}
		bf, err := e.recvFilter(ctx, bloomKeys, me, mstream(qs, "bf", ei), 1)
		pr.fail(err)
		if bf != nil {
			cascade = append(cascade, jen.CascadeFilter{Filter: bf, KeyIdx: q.FactWire[q.Edges[ei].FactKeyCol]})
		}
	}

	spec := jen.ScanSpec{
		Plan: scanPlan, Worker: w,
		Proj: q.FactScanProj, Pred: q.FactPred, Pruner: q.Pruner(),
		Cascade: cascade,
		Threads: e.cfg.WorkerThreads,
		Mem:     bud,
	}

	// Stage 0: the fact scan feeds the first edge directly.
	put, end := feed(0, q.FactWire)
	if runErr == nil {
		pr.fail(e.jen.ScanFilterBatches(spec, put))
	}
	end()

	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)

	// Join stages. Width tracks the combined layout for the adaptive
	// re-cost's bytes-per-row estimate.
	width := len(q.FactWire)
	for ei := range q.Edges {
		ed := &q.Edges[ei]
		alg := ed.Algorithm
		last := ei == len(q.Edges)-1

		if gated[ei] {
			// Keep-vs-broadcast handshake: every worker contributes its
			// observed intermediate size — unconditionally, even when
			// failing, so the designated fan-in always completes — and the
			// decision reaches the JEN and DB workers alike.
			pr.fail(e.sendControl(me, netsim.MsgControl, mstream(qs, "obs", ei), ctlPayload(heldRows), metrics.AdaptBytes, []string{jenName(desig)}))
			if w == desig {
				var total int64
				err := e.recvControl(ctx, me, netsim.MsgControl, mstream(qs, "obs", ei), n, addCtl(&total))
				pr.fail(err)
				kind := keepPlan
				if err == nil {
					// Re-cost against a broadcast from the observed
					// intermediate cardinality.
					var cur, bc float64
					kind, cur, bc, _ = e.decideSwitch(costmodel.PlanStats{
						TPrimeRows: ed.EstDimRows, TPrimeBytes: ed.EstDimBytes,
						LPrimeRows: total, LPrimeBytes: total * int64(16*width),
						JENWorkers: n, DBWorkers: m,
					}, false)
					if kind == switchBroadcast {
						switched[ei] = fmt.Sprintf(
							"edge %s: observed intermediate ≈%d rows vs dim ≈%d rows: re-cost keep=%.3gs broadcast=%.3gs (margin %.0f%%) → broadcast",
							ed.Dim.Table, total, ed.EstDimRows, cur, bc, adaptMargin*100)
					}
				}
				pr.fail(e.sendControl(me, netsim.MsgControl, mstream(qs, "dec", ei), ctlPayload(int64(kind)), metrics.AdaptBytes, append(e.jenNames(), e.dbNames()...)))
			}
			var d int64
			err := e.recvControl(ctx, me, netsim.MsgControl, mstream(qs, "dec", ei), 1, addCtl(&d))
			pr.fail(err)
			if err == nil && switchKind(d) == switchBroadcast {
				alg = plan.EdgeBroadcast
			} else {
				// Kept: the held intermediate goes out by this edge's key.
				b := shuffle(ei)
				if runErr == nil {
					pr.fail(b.scatterBatches(held, ed.FactKeyCol, nil, route))
				}
				pr.fail(b.CloseWith(runErr))
				hold(nil)
			}
		}

		// The last stage folds into the partial aggregate and applies the
		// post-join predicate over the whole combined layout; every other one
		// feeds the next edge.
		site := joinSite{leftWidth: width, probeLeft: true, key: ed.DimKeyWire}
		end := func() {}
		if last {
			site.pred, site.agg = q.PostJoin, agg
		} else {
			site.next, end = feed(ei+1, nil)
		}
		st := e.newJoinStage(qs, w, site)
		stages = append(stages, st)

		// Receive this edge's dimension — the hash-local share under
		// repartition, the full dimension under broadcast — into the build.
		pr.fail(e.receive(ctx, me, mstream(qs, "dim", ei), m, false, st.insert))
		pr.fail(st.seal())

		// Probe: the shuffle stream batch by batch as it arrives, or the
		// held intermediate.
		if alg == plan.EdgeRepartition {
			var recv int64
			pr.fail(e.receive(ctx, me, mstream(qs, "shuffle", ei), n, true, func(pb *batch.Batch) error {
				recv += int64(pb.Len())
				if runErr != nil {
					return nil
				}
				return st.probe(pb, ed.FactKeyCol, nil)
			}))
			e.rec.AddAt(metrics.JENRecvTuples, w, recv)
		} else {
			for _, pb := range held {
				if runErr != nil {
					break
				}
				pr.fail(st.probe(pb, ed.FactKeyCol, nil))
			}
			hold(nil)
		}
		if runErr == nil {
			pr.fail(st.finish())
		}
		// Run even when failing, so every peer learns the fate of this
		// worker's stream instead of waiting on it.
		end()
		width += ed.DimWireSchema.Len()
	}
	_, err := e.finishAggregation(ctx, qs, agg, w, false, runErr)
	return err
}

// ctlPayload encodes one N-way control value: an observed intermediate
// cardinality or an agreed switchKind.
func ctlPayload(v int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(v))
}

// addCtl returns a recvControl merge that sums control values into sum (one
// part for a decision, n for the observation fan-in).
func addCtl(sum *int64) func([]byte) error {
	return func(p []byte) error {
		if len(p) != 8 {
			return fmt.Errorf("core: bad control payload size %d", len(p))
		}
		*sum += int64(binary.BigEndian.Uint64(p))
		return nil
	}
}
