package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// This file is the N-way star/snowflake entry point: the analyzer's
// plan.MultiQuery runs on the executor (executor.go) as its list
// of join edges. Each dimension component is materialized database-side
// first (snowflake sub-dimensions pre-joined there, where the tables are
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
// RunMultiCtx exactly. Every dimension component is materialised, and
// charged to the budget, before the plan runs (blocking, like the two-table
// BF_DB build). Under Config.AdaptiveSwitch every repartition edge past the
// first is held-gated: the committed plan sized it from estimates whose
// error compounds edge over edge.
func (e *Engine) RunMultiOpts(ctx context.Context, q *plan.MultiQuery, opts RunOpts) (*MultiResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	qs, done, err := e.begin(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer done()
	bud := e.budget(qs)
	var charged int64
	defer func() { bud.Release(charged) }()
	edges := make([]joinEdge, len(q.Edges))
	for ei, ex := range q.Edges {
		parts, err := e.materializeDim(&ex)
		if err != nil {
			return nil, fmt.Errorf("core: multi-join query aborted: %w", err)
		}
		for _, part := range parts {
			charged += chargeBatches(bud, part)
		}
		name := func(kind string) string { return fmt.Sprintf("%s%d", kind, ei) }
		ed := joinEdge{EdgeExec: ex, parts: parts, names: edgeStreams{
			dim: name("dim"), shuffle: name("shuffle"), relay: name("relay"), toJEN: name("bf"), obs: name("obs"), dec: name("dec"),
		}}
		if ex.UseBloom {
			ed.dbF = bloomKeys
		}
		if ex.Algorithm == plan.EdgeBroadcast {
			ed.relay = e.cfg.BroadcastRelay
		}
		if ei > 0 && ex.Algorithm == plan.EdgeRepartition && e.cfg.AdaptiveSwitch {
			ed.gate = heldGate
		}
		edges[ei] = ed
	}
	rows, err := e.runEdges(ctx, qs, q, edges)
	if err != nil {
		return nil, fmt.Errorf("core: multi-join query aborted: %w", err)
	}
	res := &MultiResult{Rows: rows, Schema: q.OutputSchema}
	for _, ed := range edges {
		s := EdgeSummary{Dim: ed.Dim.Table, Algorithm: ed.Algorithm, Bloom: ed.UseBloom}
		if d := ed.decided; d != nil && d.kind == switchBroadcast {
			s.Switched, s.Algorithm, s.SwitchReason = true, plan.EdgeBroadcast, d.reason
		}
		res.Edges = append(res.Edges, s)
	}
	res.Metrics = e.rec.Snapshot()
	return res, nil
}

// materializeDim filters and projects one dimension component on every DB
// worker, pre-joining a snowflake sub-dimension DB-side when the plan has
// one. The output rows follow the component's wire layout: parent
// projection, then (for snowflake components) the sub-dimension's.
func (e *Engine) materializeDim(ed *plan.EdgeExec) ([][]*batch.Batch, error) {
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
		subHT = relop.NewHashTable(0, e.cfg.WorkerThreads) // sub wire leads with its join key
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

	parts := make([][]*batch.Batch, e.db.Workers())
	var dimJoined atomic.Int64
	err = par.ForEach(e.db.Workers(), func(w int) error {
		bs, err := e.materialize(tbl, w, ap, ed.Dim.Proj)
		if err != nil || subHT == nil {
			parts[w] = bs
			return err
		}
		cmb := newCombiner(e.cfg.BatchRows, nil, nil, true, keepBatches(&parts[w]))
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
	return parts, nil
}
