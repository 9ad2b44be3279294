package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"hybridwh/internal/batch"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// SemiJoin is the classic exact two-way semijoin baseline the literature
// contrasts Bloom joins against (the paper cites Mullin's semijoins and
// PERF join as the predecessors): the same dataflow as the zigzag join, but
// exchanging exact join-key sets instead of Bloom filters. No false
// positives, but the key sets are far larger than 16 MB Bloom filters, so
// the cross-cluster filter exchange costs more — the trade-off the paper's
// Section 6 discusses. Implemented as an extension for ablation studies; it
// is not one of the paper's evaluated algorithms.
const SemiJoin Algorithm = 100

// keySet is an exact join-key membership filter.
type keySet map[int64]struct{}

// TestKey implements jen.KeyFilter.
func (s keySet) TestKey(k int64) bool {
	_, ok := s[k]
	return ok
}

// marshalKeySet encodes the set as sorted varint deltas.
func marshalKeySet(s keySet) []byte {
	keys := make([]int64, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	prev := int64(0)
	for i, k := range keys {
		if i == 0 {
			buf = binary.AppendVarint(buf, k)
		} else {
			buf = binary.AppendUvarint(buf, uint64(k-prev))
		}
		prev = k
	}
	return buf
}

func unmarshalKeySet(b []byte) (keySet, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("core: truncated key set")
	}
	b = b[sz:]
	out := make(keySet, n)
	var prev int64
	for i := uint64(0); i < n; i++ {
		if i == 0 {
			v, sz := binary.Varint(b)
			if sz <= 0 {
				return nil, fmt.Errorf("core: truncated key set")
			}
			prev = v
			b = b[sz:]
		} else {
			d, sz := binary.Uvarint(b)
			if sz <= 0 {
				return nil, fmt.Errorf("core: truncated key set")
			}
			prev += int64(d)
			b = b[sz:]
		}
		out[prev] = struct{}{}
	}
	return out, nil
}

// sendKeySet ships a key set, accounting its bytes like the Bloom filters
// (they play the same role in the dataflow).
func (e *Engine) sendKeySet(from, stream string, s keySet, dests []string) error {
	payload := marshalKeySet(s)
	for _, d := range dests {
		e.rec.Add(metrics.BloomBytes, int64(len(payload)))
		if err := e.bus.Send(from, d, netsim.Msg{Type: netsim.MsgControl, Stream: stream, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// recvKeySets receives and unions `parts` key sets. Failure semantics match
// recvBloom: a bad part is recorded and the fan-in keeps draining; MsgError
// and context cancellation are terminal.
func (e *Engine) recvKeySets(ctx context.Context, at, stream string, parts int) (keySet, error) {
	r := e.routers[at]
	ch, err := r.Route(netsim.MsgControl, stream)
	if err != nil {
		return nil, err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		r.Unroute(netsim.MsgControl, stream)
		return nil, err
	}
	defer r.Unroute(netsim.MsgControl, stream)
	defer r.Unroute(netsim.MsgError, stream)
	out := keySet{}
	var consumeErr error
	for i := 0; i < parts; i++ {
		select {
		case env := <-ch:
			if consumeErr != nil {
				continue // already failed; keep draining the protocol
			}
			s, err := unmarshalKeySet(env.Payload)
			if err != nil {
				consumeErr = fmt.Errorf("core: %s key set %s from %s: %w", at, stream, env.From, err)
				continue
			}
			for k := range s {
				out[k] = struct{}{}
			}
		case env := <-abort:
			return nil, decodeAbort(at, stream, env)
		case <-ctx.Done():
			return nil, ctxAbort(ctx, at, stream)
		}
	}
	if consumeErr != nil {
		return nil, consumeErr
	}
	return out, nil
}

// runSemiJoin executes the exact semijoin: the zigzag dataflow with key
// sets in place of Bloom filters.
func (e *Engine) runSemiJoin(ctx context.Context, qs string, q *plan.JoinQuery) (*Result, error) {
	n, m := e.jen.Workers(), e.db.Workers()
	tbl, scanPlan, accessPlan, err := e.resolve(q)
	if err != nil {
		return nil, err
	}

	// Exact T' key set to every JEN worker (blocking, like BF_DB).
	tKeys, err := e.db.BuildKeySet(tbl, q.DBPred, q.DBJoinColBase)
	if err != nil {
		return nil, err
	}
	set := make(keySet, len(tKeys))
	for _, k := range tKeys {
		set[k] = struct{}{}
	}
	if err := e.sendKeySet(dbName(0), qs+"tkeys", set, e.jenNames()); err != nil {
		return nil, err
	}

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row
	g.Go(func() (err error) {
		resultRows, err = e.collectRows(ctx, dbName(0), qs+"final", 1)
		return err
	})

	for i := 0; i < m; i++ {
		i := i
		g.Go(func() error { return e.dbSemiProgram(ctx, qs, q, tbl, accessPlan, i, n) })
	}
	for w := 0; w < n; w++ {
		w := w
		g.Go(func() error { return e.jenSemiProgram(ctx, qs, q, scanPlan, w, n, m) })
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return &Result{Rows: resultRows}, nil
}

// dbSemiProgram mirrors dbShipProgram with an exact L'-key set instead of
// BF_H.
func (e *Engine) dbSemiProgram(ctx context.Context, qs string, q *plan.JoinQuery, tbl *edw.Table, ap edw.AccessPlan, i, n int) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	tw, _, err := e.materialize(tbl, i, ap, q.DBProj)
	pr.fail(err)
	lKeys, kerr := e.recvKeySets(ctx, dbName(i), qs+"lkeys", 1)
	pr.fail(kerr)
	b := e.newBatcher(ctx, dbName(i), qs+"dbrows", e.jenNames(), metrics.DBSentTuples, metrics.DBSentBytes, i)
	if runErr == nil {
		for _, tb := range tw {
			keys := tb.Col(q.DBWireKey)
			tb.Filter(func(r int) bool { return lKeys.TestKey(keys[r].Int()) })
		}
		pr.fail(b.scatterBatches(tw, q.DBWireKey, nil, func(key int64) string {
			return jenName(cluster.PartitionFor(key, n))
		}))
	}
	pr.fail(b.CloseWith(runErr))
	return runErr
}

// jenSemiProgram mirrors jenRepartitionProgram in zigzag mode with exact
// key sets.
func (e *Engine) jenSemiProgram(ctx context.Context, qs string, q *plan.JoinQuery, scanPlan *jen.ScanPlan, w, n, m int) error {
	me := jenName(w)
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx

	tKeys, err := e.recvKeySets(ctx, me, qs+"tkeys", 1)
	pr.fail(err)

	bud := e.budget(qs)
	ht, err := e.newJoinTable(qs, q.HDFSWireKey)
	if err != nil {
		pr.fail(err)
		ht = relop.NewMemJoinTable(q.HDFSWireKey)
	}
	defer ht.Close()
	var dbBatches []*batch.Batch
	var probeTuples int64
	var bg par.Group
	bg.Go(func() error {
		var recv int64
		err := e.recvBatches(ctx, me, qs+"shuffle", n, func(b *batch.Batch) error {
			recv += int64(b.Len())
			return ht.InsertBatch(b)
		})
		e.rec.AddAt(metrics.JENRecvTuples, w, recv)
		pr.bgFail(err)
		return err
	})
	bg.Go(func() error {
		bs, tuples, err := e.collectBatches(ctx, me, qs+"dbrows", m)
		dbBatches, probeTuples = bs, tuples
		pr.bgFail(err)
		return err
	})

	localKeys := keySet{}
	b := e.newBatcher(ctx, me, qs+"shuffle", e.jenNames(), metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	scanKey := q.HDFSWire[q.HDFSWireKey]
	if runErr == nil {
		err := e.jen.ScanFilterBatches(jen.ScanSpec{
			Plan: scanPlan, Worker: w,
			Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
			DBFilter: tKeys, BloomKeyIdx: scanKey,
			Mem: bud,
		}, func(sb *batch.Batch) error {
			// The exact-semijoin analogue of BF_H construction: collect the
			// surviving join keys while the batch streams past.
			keys := sb.Col(scanKey)
			_ = sb.Each(func(i int) error {
				localKeys[keys[i].Int()] = struct{}{}
				return nil
			})
			return b.scatterBatch(sb, q.HDFSWire, scanKey, nil, func(key int64) string {
				return jenName(cluster.PartitionFor(key, n))
			})
		})
		pr.fail(err)
	}
	pr.fail(b.CloseWith(runErr))

	// The (possibly partial) key set still completes the fan-in on the error
	// path; the failure itself travels via MsgError and the context.
	desig := e.jen.DesignatedWorker()
	pr.fail(e.sendKeySet(me, qs+"lkeyslocal", localKeys, []string{jenName(desig)}))
	if w == desig {
		global, err := e.recvKeySets(ctx, me, qs+"lkeyslocal", n)
		pr.fail(err)
		if global == nil {
			global = keySet{}
		}
		pr.fail(e.sendKeySet(me, qs+"lkeys", global, e.dbNames()))
	}

	pr.fail(bg.Wait())
	pr.fail(ht.FinishBuild())
	e.rec.AddAt(metrics.JoinBuildTuples, w, ht.Len())
	e.rec.AddAt(metrics.JoinProbeTuples, w, probeTuples)

	charged := chargeBatches(bud, dbBatches)
	defer bud.Release(charged)

	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)
	defer func() { bud.Release(agg.MemBytes()) }()
	if runErr == nil {
		pr.fail(e.probeAndAggregateBatches(ht, dbBatches, q, agg, e.cfg.WorkerThreads))
	}
	e.recordSpillStats(ht, w)
	return e.finishAggregation(ctx, qs, q.GroupBy, q.Aggs, agg, w, n, runErr)
}
