package core

import (
	"context"
	"slices"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
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

// The executor. Every query runs as a plan: one filtered scan of the fact
// (HDFS) table, then a list of join edges, each a join against one dimension
// (DB) component. An N-way star or snowflake is the analyzer's edge list;
// a two-table query of any of the eight algorithms (Figures 1–4) is the
// one-edge plan of lowerTwoTable. One DB program (dbProgram) ships every
// edge's dimension, one JEN program (jenProgram) scans and runs every edge,
// and each edge's joinEdge fields, not the entry point, pick what it does —
// where the join runs among them: on the JEN workers, as a join stage of the
// Figure 7 pipeline, or in the database, which ingests the scan (Figure 1).

// location is where an edge's join runs.
type location byte

const (
	atJEN location = iota // the JEN workers join (Figures 2–4)
	atDB                  // the database ingests the scan and joins (Figure 1)
)

// gate is an edge's adaptive gate (Config.AdaptiveSwitch, adaptive.go).
type gate byte

const (
	noGate   gate = iota
	scanGate      // the first K scan batches and a sketch decide keep, broadcast or hybrid
	heldGate      // the whole held input's size decides keep or broadcast
)

// edgeStreams names an edge's streams, suffixes of the query prefix. The bus
// counts a name's bytes in every message, so a lowered plan keeps the names
// its algorithm always had. A DB-located edge's dim is T' reshuffled among
// the DB workers, its shuffle the ingest, its relay the ingested rows'
// reshuffle.
type edgeStreams struct {
	dim, shuffle, relay string // the dimension, the fact side's shuffle, the broadcast relay
	toJEN, fanIn, toDB  string // the key filters: DB → JEN, JEN fan-in, JEN → DB
	obs, dec            string // the gate's observation fan-in and decision
}

// joinEdge is one join edge as it executes: the analyzer's edge and the
// physical operator the plan picked for it.
type joinEdge struct {
	plan.EdgeExec // Algorithm: broadcast or repartition
	names         edgeStreams

	at location
	// A DB-located edge's database side: its optimizer's final-join strategy
	// (from T' and L' estimates, Section 4.3) and each JEN worker's DB
	// worker, the ingest layout (Figure 5).
	strategy edw.JoinStrategy
	ingestTo []int

	// dbF prunes the fact scan with the dimension's keys (BF_DB, a cascade
	// filter), hF the dimension with the keys that survive the scan (BF_H);
	// both cross the bus. The scan fills hF, so at most one edge of a plan
	// has one. A prescan edge's filters never cross it (zigzag-db, §3.4):
	// before the programs start, BF_DB (scanF) is built and a first fact scan
	// under it builds BF_H (pruneF), and both are handed over in-process.
	dbF, hF       filterKind
	prescan       bool
	scanF, pruneF joinFilter
	// buildFact builds the shuffled fact rows as they arrive, buffers the
	// dimension and probes with it on WorkerThreads goroutines: Figure 7's
	// two-table shuffle join, whose dimension may wait on hF or a switch
	// decision. Any other edge builds its dimension and streams its input.
	buildFact bool
	gate      gate
	relay     bool // a broadcast ships by the §4.3 relay (Config.BroadcastRelay)
	// rowsOnce counts a broadcast's db.sent.tuples once per row, as the
	// two-table broadcast always has (the per-row UDF read happens once);
	// every other ship counts one per copy. Bytes count every copy.
	rowsOnce bool

	// The dimension: materialised per DB worker before the programs start
	// (an N-way component), or, with parts nil, filtered from tbl by ap as
	// each DB worker ships it (a two-table T'; keyBase is its join key's
	// base column, for a dbF built from the table).
	parts   [][]*batch.Batch
	tbl     *edw.Table
	ap      edw.AccessPlan
	keyBase int

	decided *adaptDecision // by the designated JEN worker; read after the programs
}

// lowerTwoTable lowers a two-table query to its one-edge plan: the HDFS
// table is the fact, T' the dimension, the combined layout HDFS wire ++ DB
// wire. Broadcast builds T' and streams the scan through it (Figure 2); the
// repartition family builds the shuffled L' (Figures 3 and 4), with no key
// filter (repartition), BF_DB (repartition(BF)), Bloom filters both ways
// (zigzag) or exact key sets both ways (the semijoin). The DB-side family
// joins in the database (Figure 1), without a key filter (db), with BF_DB
// (db(BF)) or with both filters in-process (zigzag-db).
func (e *Engine) lowerTwoTable(q *plan.JoinQuery, alg Algorithm) (*plan.MultiQuery, []joinEdge, error) {
	tbl, err := e.db.Table(q.DBTable)
	if err != nil {
		return nil, nil, err
	}
	ed := joinEdge{
		EdgeExec: plan.EdgeExec{
			Dim:        plan.DimPlan{Table: q.DBTable, Pred: q.DBPred, Proj: q.DBProj},
			DimKeyWire: q.DBWireKey, DimWireSchema: q.DBWireSchema, FactKeyCol: q.HDFSWireKey,
		},
		names: edgeStreams{dim: "dbrows", shuffle: "shuffle", relay: "relay", obs: "adapt.obs", dec: "adapt.dec"},
		tbl:   tbl, ap: e.accessPlan(tbl, q.DBPred, q.DBProj), keyBase: q.DBJoinColBase,
	}
	switch alg {
	case Broadcast:
		ed.Algorithm, ed.relay, ed.rowsOnce = plan.EdgeBroadcast, e.cfg.BroadcastRelay, true
	case Repartition:
		ed.buildFact = true
	case RepartitionBloom:
		ed.buildFact, ed.dbF = true, bloomKeys
	case Zigzag:
		ed.buildFact, ed.dbF, ed.hF = true, bloomKeys, bloomKeys
	case SemiJoin:
		ed.buildFact, ed.dbF, ed.hF = true, exactKeys, exactKeys
	case DBSideBloom:
		ed.dbF = bloomKeys
	case ZigzagDBVariant:
		ed.prescan = true
	}
	if ed.buildFact && e.cfg.AdaptiveSwitch {
		ed.gate = scanGate
	}
	if alg == DBSide || alg == DBSideBloom || alg == ZigzagDBVariant {
		// The optimizer sees T' estimated from the access plan and L' from
		// the cardinality hint the paper passes to its read_hdfs UDF, or the
		// catalog.
		estL := q.HDFSCardHint
		if estL == 0 {
			if cat, err := e.jen.Catalog().Lookup(q.HDFSTable); err == nil {
				estL = cat.Rows
			}
		}
		m := e.db.Workers()
		ed.at, ed.names.dim, ed.names.shuffle, ed.names.relay = atDB, "treshuf", "ingest", "lreshuf"
		ed.strategy = edw.ChooseJoinStrategy(int64(float64(tbl.Rows())*ed.ap.EstSelectivity), estL, m)
		ed.ingestTo = ingestLayout(e.jen.Workers(), m, alg == ZigzagDBVariant)
	}
	ed.names.toJEN, _, _ = ed.dbF.streams()
	_, ed.names.fanIn, ed.names.toDB = ed.hF.streams()
	return &plan.MultiQuery{
		FactTable: q.HDFSTable, FactScanProj: q.HDFSScanProj, FactPred: q.HDFSPred,
		FactPrunerRanges: q.HDFSPrunerRanges, FactWire: q.HDFSWire, FactWireSchema: q.HDFSWireSchema,
		PostJoin: q.PostJoin, GroupBy: q.GroupBy, Aggs: q.Aggs, OutputSchema: q.OutputSchema,
	}, []joinEdge{ed}, nil
}

// ingestLayout maps each of n JEN workers to the one of m DB workers it
// ingests into (Figure 5): with n ≥ m the JEN workers divide into m groups,
// otherwise JEN worker j feeds DB worker j. zigzag-db deals them out
// round-robin (j mod m), the layout its pinned counters were measured with.
func ingestLayout(n, m int, roundRobin bool) []int {
	to := make([]int, n)
	for j := range to {
		to[j] = j % m
	}
	if n >= m && !roundRobin {
		for i, group := range cluster.Groups(n, m) {
			for _, j := range group {
				to[j] = i
			}
		}
	}
	return to
}

// runEdges runs a plan and returns its result rows: the final aggregate the
// designated JEN worker sends to one DB node (step 9 of Figures 2–4), or,
// when the last edge joins in the database, the one db/0 folds (Figure 1).
// First, blocking, every DB → JEN key filter is built and sent (steps 1–2),
// or, for a prescan edge, built and kept with the BF_H its first scan
// builds. The worker programs run in one group, under a context the first
// failure cancels (see abort.go).
func (e *Engine) runEdges(ctx context.Context, qs string, q *plan.MultiQuery, edges []joinEdge) ([]types.Row, error) {
	scanPlan, err := e.jen.PlanScan(q.FactTable)
	if err != nil {
		return nil, err
	}
	for ei := range edges {
		ed := &edges[ei]
		if ed.dbF == noFilter && !ed.prescan {
			continue
		}
		f, err := e.buildDBFilter(ed)
		switch {
		case err != nil:
		case ed.prescan:
			ed.scanF = f
			ed.pruneF, err = e.scanBFH(qs, q, scanPlan, ed)
		default:
			err = e.sendFilter(dbName(0), qs+ed.names.toJEN, f, e.jenNames())
		}
		if err != nil {
			return nil, err
		}
	}
	g, ctx := par.WithContext(ctx)
	var rows []types.Row
	if edges[len(edges)-1].at == atJEN {
		g.Go(func() error { return e.receive(ctx, dbName(0), qs+"final", 1, false, appendRows(&rows)) })
	}
	for i := 0; i < e.db.Workers(); i++ {
		g.Go(func() error {
			r, err := e.dbProgram(ctx, qs, q, edges, i)
			if r != nil { // db/0 of a DB-located join: no final receive runs
				rows = r
			}
			return err
		})
	}
	for w := 0; w < e.jen.Workers(); w++ {
		g.Go(func() error { return e.jenProgram(ctx, qs, q, scanPlan, edges, w) })
	}
	err = g.Wait()
	return rows, err
}

// buildDBFilter builds an edge's DB → JEN filter (zigzag steps 1–2). From a
// table it is the filter over the join keys (base column keyBase) of the
// rows that pass the dimension's predicate: BF_DB, whose build records
// bloom.build.keys, or the exact key set of T'. From a materialised
// dimension it is the Bloom filter of the rows that survived it (snowflake
// pre-join included), recording its estimated cardinality as
// bloom.build.keys. The filter is valid only when the error is nil.
func (e *Engine) buildDBFilter(ed *joinEdge) (joinFilter, error) {
	switch {
	case ed.parts == nil && ed.dbF == exactKeys:
		keys, err := e.db.BuildKeySet(ed.tbl, ed.Dim.Pred, ed.keyBase)
		return jen.KeySet(keys), err
	case ed.parts == nil:
		bf, err := e.db.BuildBloom(ed.tbl, ed.Dim.Pred, ed.keyBase, e.cfg.BloomBits, e.cfg.BloomHashes)
		return jen.BloomKeyFilter{F: bf}, err
	}
	bf := bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
	for _, part := range ed.parts {
		for _, b := range part {
			keys := b.Col(ed.DimKeyWire)
			_ = b.Each(func(i int) error {
				bf.AddHash(types.BloomHashKey(keys[i].Int()))
				return nil
			})
		}
	}
	e.rec.Add(metrics.BloomBuildKeys, int64(bf.EstimateCardinality()))
	return jen.BloomKeyFilter{F: bf}, nil
}

// scanBFH is a prescan edge's first fact scan (zigzag-db, §3.4): every JEN
// worker scans with the edge's BF_DB applied, building BF_H only (nothing is
// shuffled or shipped), and the union of the local filters is BF_H. Its
// crossing to the m DB workers is charged to bloom.bytes.
func (e *Engine) scanBFH(qs string, q *plan.MultiQuery, scanPlan *jen.ScanPlan, ed *joinEdge) (joinFilter, error) {
	locals := make([]*bloom.Filter, e.jen.Workers())
	key := q.FactWire[ed.FactKeyCol]
	err := par.ForEach(len(locals), func(w int) error {
		locals[w] = bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)
		spec := e.factScan(q, scanPlan, w, e.budget(qs))
		spec.Cascade = []jen.CascadeFilter{{Filter: ed.scanF, KeyIdx: key}}
		spec.BuildKeys, spec.BloomKeyIdx = jen.BloomKeyFilter{F: locals[w]}, key
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
	return jen.BloomKeyFilter{F: bfh}, nil
}

// factScan is JEN worker w's scan of a plan's fact table under budget bud,
// before any key filter is added.
func (e *Engine) factScan(q *plan.MultiQuery, scanPlan *jen.ScanPlan, w int, bud *mem.Budget) jen.ScanSpec {
	return jen.ScanSpec{
		Plan: scanPlan, Worker: w, Proj: q.FactScanProj, Pred: q.FactPred, Pruner: q.Pruner(),
		Threads: e.cfg.WorkerThreads, Mem: bud,
	}
}

// dbProgram is one DB worker's side of a plan: ship its share of every
// edge's dimension, edge by edge — broadcast, or routed by the agreed hash
// (step 6 of Figures 2–4). A dimension ships as it is produced, unless it
// waits: materialised, for the hF filter that prunes it (zigzag steps 4–5)
// and for a scan gate's decision, which routes it — hash home, hybrid
// scatter or broadcast; or for a held gate's decision alone. So a dimension
// past a gated edge ships only after that edge's decision. A DB-located edge
// is the plan's last: the worker joins it (dbJoin), and db/0 returns the
// result rows.
func (e *Engine) dbProgram(ctx context.Context, qs string, q *plan.MultiQuery, edges []joinEdge, i int) ([]types.Row, error) {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	me, n := dbName(i), e.jen.Workers()
	route := hashRoute(n)
	for ei := range edges {
		ed := &edges[ei]
		if ed.at == atDB {
			return e.dbJoin(pr, qs, q, ed, i)
		}
		dests, tuples := e.jenNames(), metrics.DBSentTuples
		if ed.relay {
			dests = []string{jenName(i % n)}
		}
		if ed.rowsOnce {
			tuples = ""
		}
		b := e.newBatcher(ctx, me, qs+ed.names.dim, dests, tuples, metrics.DBSentBytes, i)
		bcast := ed.Algorithm == plan.EdgeBroadcast
		var hot *skew.HotSet
		src := func(fn func(*batch.Batch) error) error {
			return e.db.FilterProjectBatches(ed.tbl, i, ed.ap, ed.Dim.Proj, e.cfg.BatchRows, e.cfg.WorkerThreads, fn)
		}
		if ed.parts != nil {
			src = eachBatch(ed.parts[i])
		}
		// On a failure the receives below run under the aborted program
		// context, so the protocol obligations complete without blocking.
		switch {
		case ed.hF != noFilter || ed.gate == scanGate:
			var tw []*batch.Batch
			pr.fail(src(keepBatches(&tw)))
			if ed.gate == scanGate {
				// Before the hF wait (see adaptObserveT), so |T'| is
				// reported pre-pruning: what the committed plan would ship
				// if the filter were useless.
				e.adaptObserveT(pr, qs+ed.names.obs, len(ed.Dim.Proj), i, liveRows(tw))
			}
			if ed.hF != noFilter {
				f, err := e.recvFilter(ctx, ed.hF, me, qs+ed.names.toDB, 1)
				pr.fail(err)
				if err == nil {
					e.pruneT(tw, ed.DimKeyWire, f)
				}
			}
			if ed.gate == scanGate {
				var d *adaptDecision
				pr.fail(e.recvControl(ctx, me, netsim.MsgControl, qs+ed.names.dec, 1, func(p []byte) (err error) {
					d, err = unmarshalDecision(p)
					return err
				}))
				if d != nil {
					bcast, hot = d.kind == switchBroadcast, d.hot
				}
			}
			src = eachBatch(tw)
		case ed.gate == heldGate:
			var d int64
			err := e.recvControl(ctx, me, netsim.MsgControl, qs+ed.names.dec, 1, addCtl(&d))
			pr.fail(err)
			bcast = err == nil && switchKind(d) == switchBroadcast
		}
		var sent int64
		if runErr == nil {
			pr.fail(src(func(fb *batch.Batch) error {
				if bcast {
					sent += int64(fb.Len())
					return b.sendBatch(fb, nil)
				}
				return b.scatterBatch(fb, nil, ed.DimKeyWire, hot, route)
			}))
		}
		// Closed even when failing, so every receiver learns the stream's fate.
		pr.fail(b.CloseWith(runErr))
		if ed.rowsOnce {
			e.rec.AddAt(metrics.DBSentTuples, i, sent)
		}
	}
	return nil, runErr
}

// dbJoin is DB worker i's side of a DB-located edge, the database's final
// join (Figure 1). The database's partitioning function is opaque to JEN
// (Section 4.3), so per the edge's strategy T' and the ingested fact rows
// move again among the DB workers: T' broadcast (BroadcastDB), the ingested
// rows broadcast (BroadcastIngested), or both repartitioned. Every worker
// probes its T' table with its fact rows and ships its partial aggregate to
// db/0, which returns the final groups. It always completes the wire
// protocol (EOS to every peer) before reporting errors.
func (e *Engine) dbJoin(pr *prog, qs string, q *plan.MultiQuery, ed *joinEdge, i int) ([]types.Row, error) {
	ctx, me, m := pr.ctx, dbName(i), e.db.Workers()
	// Local T' first. It is materialised: depending on the strategy it is
	// inserted locally, reshuffled or broadcast, and pruneF (zigzag-db's
	// BF_H) prunes it before any of that.
	tw, err := e.materialize(ed.tbl, i, ed.ap, ed.Dim.Proj)
	pr.fail(err)
	if err == nil && ed.pruneF != nil {
		e.pruneT(tw, ed.DimKeyWire, ed.pruneF)
	}

	// Background receivers registered before anything is sent. Their errors
	// abort the program context (bgFail), so a failed receiver also unblocks
	// its sibling and the ingest loop below.
	bud := e.budget(qs)
	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)
	st := e.newJoinStage(qs, i, joinSite{pred: q.PostJoin, leftWidth: len(q.FactWire), probeLeft: true, key: ed.DimKeyWire, agg: agg})
	defer st.close()
	var lbatches []*batch.Batch
	var bg par.Group
	switch ed.strategy {
	case edw.RepartitionBoth, edw.BroadcastDB:
		// The hash table holds T' rows arriving on the reshuffle.
		bg.Go(func() error {
			err := e.receive(ctx, me, qs+ed.names.dim, m, false, st.insert)
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
	if ed.strategy != edw.BroadcastDB {
		// The ingested rows arrive reshuffled or broadcast.
		bg.Go(func() error {
			err := e.receive(ctx, me, qs+ed.names.relay, m, false, keepBatches(&lbatches))
			pr.bgFail(err)
			return err
		})
	}

	// Ship T' per strategy: scattered by the agreed hash or broadcast.
	route := hashRoute(m)
	if ed.strategy != edw.BroadcastIngested {
		tb := e.newBatcher(ctx, me, qs+ed.names.dim, e.dbNames(), metrics.DBReshuffleTuples, metrics.DBReshuffleBytes, i)
		if *pr.err == nil {
			pr.fail(eachBatch(tw)(func(b *batch.Batch) error {
				if ed.strategy == edw.RepartitionBoth {
					return tb.scatterBatch(b, nil, ed.DimKeyWire, nil, route)
				}
				return tb.sendBatch(b, nil)
			}))
		}
		pr.fail(tb.CloseWith(*pr.err))
	}

	// Ingest the fact rows from this worker's JEN workers, forwarding per
	// strategy; pipelined — batches are forwarded as they arrive.
	senders := 0
	for _, to := range ed.ingestTo {
		if to == i {
			senders++
		}
	}
	switch ed.strategy {
	case edw.RepartitionBoth, edw.BroadcastIngested:
		// Each ingested row is counted once, even where it is replicated to
		// every worker (the bus and byte counter see every copy).
		lb := e.newBatcher(ctx, me, qs+ed.names.relay, e.dbNames(), "", metrics.DBIngestBytes, i)
		forward := func(b *batch.Batch) error { return lb.sendBatch(b, nil) }
		if ed.strategy == edw.RepartitionBoth {
			forward = func(b *batch.Batch) error { return lb.scatterBatch(b, nil, ed.FactKeyCol, nil, route) }
		}
		var ingested int64
		pr.fail(e.receive(ctx, me, qs+ed.names.shuffle, senders, true, func(b *batch.Batch) error {
			ingested += int64(b.Len())
			return forward(b)
		}))
		pr.fail(lb.CloseWith(*pr.err))
		e.rec.AddAt(metrics.DBIngestTuples, i, ingested)
	case edw.BroadcastDB:
		// No forwarding: buffer the ingested batches locally.
		pr.fail(e.receive(ctx, me, qs+ed.names.shuffle, senders, false, keepBatches(&lbatches)))
		e.rec.AddAt(metrics.DBIngestTuples, i, liveRows(lbatches))
	}

	pr.fail(bg.Wait())
	pr.fail(st.seal())
	charged := chargeBatches(bud, lbatches)
	defer bud.Release(charged)

	// Probe: the fact rows against the T' table, through the combiner into
	// the partial aggregate; the partials converge on db/0.
	if *pr.err == nil {
		pr.fail(st.probeAll(lbatches, ed.FactKeyCol, 1))
	}
	return e.finishAggregation(ctx, qs, agg, i, true, *pr.err)
}

// materialize filters and projects worker w's partition of tbl into cloned
// batches: the T' (or dimension) a DB program must hold before it can route
// it — for a Bloom filter still to arrive, a switch decision, or a DB-side
// join.
func (e *Engine) materialize(tbl *edw.Table, w int, ap edw.AccessPlan, proj []int) ([]*batch.Batch, error) {
	var out []*batch.Batch
	err := e.db.FilterProjectBatches(tbl, w, ap, proj, e.cfg.BatchRows, e.cfg.WorkerThreads, keepBatches(&out))
	return out, err
}

// eachBatch is a batch source over materialised batches.
func eachBatch(bs []*batch.Batch) func(fn func(*batch.Batch) error) error {
	return func(fn func(*batch.Batch) error) error {
		for _, b := range bs {
			if err := fn(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// jenWorker is one JEN worker's program over a plan, and its state.
type jenWorker struct {
	e      *Engine
	ctx    context.Context
	pr     *prog
	qs, me string
	w      int
	q      *plan.MultiQuery
	edges  []joinEdge
	runs   []edgeRun
	lTotal int64 // the fact table's rows, for a scan gate's extrapolation
	bud    *mem.Budget
	agg    *relop.HashAgg

	held                []*batch.Batch // a held gate's input, its rows and budget charge
	heldRows, heldBytes int64
}

// edgeRun is what the worker keeps of one edge while it runs: its stage, the
// end of the stage's output, and a fact-build edge's background receivers,
// buffered dimension and scan gate.
type edgeRun struct {
	st  *joinStage
	end func()
	bg  par.Group
	dim []*batch.Batch
	aw  *adaptJENWorker
}

// jenProgram is one JEN worker's side of a plan: receive the DB → JEN key
// filters, scan the fact table once with all of them applied (filling the hF
// filter), run the edges as join stages, and finish with the aggregation
// fan-in — unless the last edge joins in the database, which the scan, or
// the stage before it, feeds instead.
//
// The stages stream. A broadcast edge builds its dimension before its input
// arrives and probes each input batch as it comes, from the scan's morsel
// threads or from the stage before it. A repartition edge's input scatters
// into its shuffle; the edge builds its dimension share, then probes each
// shuffled batch as it arrives, while the batch is on loan. A combiner hands
// every output batch straight to the next edge's input; the last folds into
// the partial aggregate. Only a held gate holds its input whole (its
// observation counts it), and a fact-build edge its dimension; each is
// charged to the budget until consumed.
func (e *Engine) jenProgram(ctx context.Context, qs string, q *plan.MultiQuery, scanPlan *jen.ScanPlan, edges []joinEdge, w int) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	j := &jenWorker{
		e: e, ctx: pr.ctx, pr: pr, qs: qs, me: jenName(w), w: w, q: q, edges: edges,
		runs: make([]edgeRun, len(edges)), lTotal: scanPlan.Table.Rows,
		bud: e.budget(qs), agg: relop.NewHashAgg(q.GroupBy, q.Aggs),
	}
	j.agg.SetBudget(j.bud)
	defer j.close()

	// Morsel workers filter, bloom-probe and feed the first edge
	// concurrently; the shared batchers keep message counts deterministic.
	spec := e.factScan(q, scanPlan, w, j.bud)
	var hEdge *joinEdge
	var hKeys joinFilter
	for ei := range edges { // blocking, in edge order (zigzag step 2)
		ed := &edges[ei]
		key := q.FactWire[ed.FactKeyCol]
		f := ed.scanF
		if ed.dbF != noFilter {
			var err error
			f, err = e.recvFilter(j.ctx, ed.dbF, j.me, qs+ed.names.toJEN, 1)
			pr.fail(err)
		}
		if f != nil {
			spec.Cascade = append(spec.Cascade, jen.CascadeFilter{Filter: f, KeyIdx: key})
		}
		if ed.hF != noFilter {
			hEdge, hKeys = ed, e.newFilter(ed.hF)
			spec.BuildKeys, spec.BloomKeyIdx = hKeys, key
		}
	}
	put, end := j.open(0, q.FactWire)
	if aw := j.runs[0].aw; aw != nil {
		spec.Progress = &aw.progress
	}
	if runErr == nil {
		pr.fail(e.jen.ScanFilterBatches(spec, put))
	}
	end()

	// Zigzag steps 3b–4: the local hF filter to the designated worker, which
	// sends the union to every DB worker. A partial filter is sent even when
	// failing, so the fan-in completes; the failure travels via MsgError.
	if hEdge != nil {
		desig := e.jen.DesignatedWorker()
		pr.fail(e.sendFilter(j.me, qs+hEdge.names.fanIn, hKeys, []string{jenName(desig)}))
		if w == desig {
			global, err := e.recvFilter(j.ctx, hEdge.hF, j.me, qs+hEdge.names.fanIn, e.jen.Workers())
			pr.fail(err)
			if global == nil {
				global = e.newFilter(hEdge.hF)
			}
			pr.fail(e.sendFilter(j.me, qs+hEdge.names.toDB, global, e.dbNames()))
		}
	}
	for ei := range edges {
		j.run(ei)
	}
	if edges[len(edges)-1].at == atDB {
		return runErr // the database joins and aggregates
	}
	_, err := e.finishAggregation(ctx, qs, j.agg, w, false, runErr)
	return err
}

// open opens edge ei's input, which the scan feeds for edge 0 and each stage
// for the next edge. put takes batches projected through proj (nil: as they
// are) and is safe for the scan's concurrent morsel threads; end completes
// the input, even when failing, so every peer learns its streams' fate.
func (j *jenWorker) open(ei int, proj []int) (put func(*batch.Batch) error, end func()) {
	e, ed, r := j.e, &j.edges[ei], &j.runs[ei]
	key := ed.FactKeyCol
	if proj != nil {
		key = proj[key]
	}
	switch {
	case ed.at == atDB: // the input ingests into this worker's DB worker
		b := e.newBatcher(j.ctx, j.me, j.qs+ed.names.shuffle, []string{dbName(ed.ingestTo[j.w])}, metrics.HDFSSentTuples, metrics.HDFSSentBytes, j.w)
		return func(src *batch.Batch) error { return b.sendBatch(src, proj) }, func() { j.pr.fail(b.CloseWith(*j.pr.err)) }
	case ed.gate == heldGate: // the observation counts the whole input: hold a copy
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
		}, func() { j.hold(kept) }
	case ed.Algorithm == plan.EdgeBroadcast:
		// Build first. A scan batch probes before it is projected: only rows
		// with a non-empty bucket take the wire layout.
		st := j.stage(ei)
		j.pr.fail(j.recvDim(ed, st.insert))
		j.pr.fail(st.seal())
		return func(src *batch.Batch) error { return st.probe(src, key, proj) }, func() { j.finish(ei) }
	}
	b, route := j.shuffle(ed), hashRoute(e.jen.Workers())
	put = func(src *batch.Batch) error { return b.scatterBatch(src, proj, key, nil, route) }
	end = func() { j.pr.fail(b.CloseWith(*j.pr.err)) }
	if !ed.buildFact {
		return put, end
	}

	// The receivers start before any sending, keeping the shuffle
	// deadlock-free: the table builds from shuffled rows as they arrive (and
	// spills under a query budget), the dimension is buffered (Section 4.4).
	// A receiver's error aborts the program context, so its sibling and the
	// program stop waiting for streams a dead peer will never finish.
	st := j.stage(ei)
	r.bg.Go(func() error {
		var recv int64
		err := e.receive(j.ctx, j.me, j.qs+ed.names.shuffle, e.jen.Workers(), false, func(b *batch.Batch) error {
			recv += int64(b.Len())
			return st.insert(b)
		})
		e.rec.AddAt(metrics.JENRecvTuples, j.w, recv)
		j.pr.bgFail(err)
		return err
	})
	r.bg.Go(func() error {
		err := e.receive(j.ctx, j.me, j.qs+ed.names.dim, e.db.Workers(), false, keepBatches(&r.dim))
		j.pr.bgFail(err)
		return err
	})
	if ed.gate != scanGate {
		return put, end
	}
	// Under the scan gate the worker buffers and observes until the switch
	// decision lands, and routes from then on (see adaptive.go). After the
	// scan it completes the handshake — its snapshot even when failing,
	// coordination at the designated worker — and applies the decision.
	closeShuffle := end
	r.aw = &adaptJENWorker{
		e: e, me: j.me, obs: j.qs + ed.names.obs, b: b, w: j.w, n: e.jen.Workers(),
		wire: proj, wireKey: ed.FactKeyCol, scanKey: key, route: route,
		sketch: skew.NewSketch(sketchKeys),
	}
	r.aw.watch(j.ctx, j.pr, j.qs+ed.names.dec)
	return r.aw.onBatch, func() {
		r.aw.finish(j.ctx, j.pr, j.lTotal, int64(16*len(proj)), j.qs+ed.names.dec, &ed.decided)
		closeShuffle()
	}
}

// run completes edge ei once its input is complete, and ends its output.
func (j *jenWorker) run(ei int) {
	e, ed, pr := j.e, &j.edges[ei], j.pr
	switch {
	case ed.buildFact:
		j.probeDim(ei)
		return
	case ed.at == atDB, ed.Algorithm == plan.EdgeBroadcast && ed.gate == noGate:
		return // it ran as its input streamed (into the database, at a DB-located edge)
	}
	bcast := ed.gate == heldGate && j.decide(ei)
	st := j.stage(ei)
	pr.fail(j.recvDim(ed, st.insert))
	pr.fail(st.seal())
	if bcast {
		for _, pb := range j.held {
			if *pr.err != nil {
				break
			}
			pr.fail(st.probe(pb, ed.FactKeyCol, nil))
		}
		j.hold(nil)
	} else {
		// The stage's output sends, so the shuffle's receive relays.
		var recv int64
		pr.fail(e.receive(j.ctx, j.me, j.qs+ed.names.shuffle, e.jen.Workers(), true, func(pb *batch.Batch) error {
			recv += int64(pb.Len())
			if *pr.err != nil {
				return nil
			}
			return st.probe(pb, ed.FactKeyCol, nil)
		}))
		e.rec.AddAt(metrics.JENRecvTuples, j.w, recv)
	}
	j.finish(ei)
}

// probeDim completes a fact-build edge: it waits for the table and the
// buffered dimension, charges the latter to the budget while it probes (the
// table accounts for itself), and probes.
func (j *jenWorker) probeDim(ei int) {
	ed, r, pr := &j.edges[ei], &j.runs[ei], j.pr
	pr.fail(r.bg.Wait())
	pr.fail(r.st.seal())
	charged := chargeBatches(j.bud, r.dim)
	defer j.bud.Release(charged)
	switch {
	case *pr.err != nil:
	case r.aw != nil && r.aw.decision.Load().kind == switchBroadcast:
		// Switched to broadcast: the shuffle carried no rows, the buffered
		// dimension is the whole T', and the buffered fact rows probe it
		// through a broadcast edge's site — exactly a planned broadcast.
		site := r.st.site
		site.probeLeft, site.key, site.spill = true, ed.DimKeyWire, false
		bst := j.e.newJoinStage(j.qs, j.w, site)
		for _, b := range r.dim {
			pr.fail(bst.insert(b))
		}
		pr.fail(bst.seal())
		if *pr.err == nil {
			pr.fail(bst.probeAll(r.aw.takeBuffered(), ed.FactKeyCol, 1))
		}
		bst.close()
	default:
		pr.fail(r.st.probeAll(r.dim, ed.DimKeyWire, j.e.cfg.WorkerThreads))
	}
	r.end()
}

// stage opens edge ei's join stage over the combined layout entering it. Its
// output feeds the next edge's input, or, from the last edge, the partial
// aggregate through the post-join predicate over the whole layout.
func (j *jenWorker) stage(ei int) *joinStage {
	ed, r := &j.edges[ei], &j.runs[ei]
	site := joinSite{leftWidth: j.width(ei), probeLeft: !ed.buildFact, key: ed.DimKeyWire}
	if ed.buildFact {
		site.key, site.spill = ed.FactKeyCol, true
	}
	r.end = func() {}
	if ei == len(j.edges)-1 {
		site.pred, site.agg = j.q.PostJoin, j.agg
	} else {
		site.next, r.end = j.open(ei+1, nil)
	}
	r.st = j.e.newJoinStage(j.qs, j.w, site)
	return r.st
}

// finish finishes edge ei's stage and ends its output.
func (j *jenWorker) finish(ei int) {
	if *j.pr.err == nil {
		j.pr.fail(j.runs[ei].st.finish())
	}
	j.runs[ei].end()
}

// width is the combined layout's width entering edge ei.
func (j *jenWorker) width(ei int) int {
	w := len(j.q.FactWire)
	for _, ed := range j.edges[:ei] {
		w += ed.DimWireSchema.Len()
	}
	return w
}

// shuffle opens this worker's side of an edge's shuffle stream.
func (j *jenWorker) shuffle(ed *joinEdge) *batcher {
	return j.e.newBatcher(j.ctx, j.me, j.qs+ed.names.shuffle, j.e.jenNames(), metrics.JENShuffleTuples, metrics.JENShuffleBytes, j.w)
}

// hold replaces the held input, moving its budget charge.
func (j *jenWorker) hold(bs []*batch.Batch) {
	j.bud.Release(j.heldBytes)
	j.held, j.heldRows, j.heldBytes = bs, liveRows(bs), chargeBatches(j.bud, bs)
}

// close releases the stages' builds and the held input.
func (j *jenWorker) close() {
	for i := range j.runs {
		if st := j.runs[i].st; st != nil {
			st.close()
		}
	}
	j.bud.Release(j.heldBytes)
}

// recvDim receives an edge's dimension into insert: from every DB worker, or
// by the relay — from this worker's DB feeders, relaying each batch to every
// other JEN worker, in the foreground, and from the peers' relays in the
// background. insert must be safe for the two at once.
func (j *jenWorker) recvDim(ed *joinEdge, insert func(*batch.Batch) error) error {
	e, n, m := j.e, j.e.jen.Workers(), j.e.db.Workers()
	if !ed.relay {
		return e.receive(j.ctx, j.me, j.qs+ed.names.dim, m, false, insert)
	}
	var runErr error
	pr := newProg(j.ctx, &runErr)
	defer pr.release()
	direct := 0 // DB worker i feeds JEN worker i%n
	for i := j.w; i < m; i += n {
		direct++
	}
	var bg par.Group
	bg.Go(func() error {
		err := e.receive(pr.ctx, j.me, j.qs+ed.names.relay, n-1, false, insert)
		pr.bgFail(err)
		return err
	})
	others := slices.DeleteFunc(e.jenNames(), func(name string) bool { return name == j.me })
	rb := e.newBatcher(pr.ctx, j.me, j.qs+ed.names.relay, others, metrics.JENShuffleTuples, metrics.JENShuffleBytes, j.w)
	pr.fail(e.receive(pr.ctx, j.me, j.qs+ed.names.dim, direct, true, func(b *batch.Batch) error {
		if err := insert(b); err != nil {
			return err
		}
		return rb.sendBatch(b, nil)
	}))
	pr.fail(rb.CloseWith(runErr))
	pr.fail(bg.Wait())
	return runErr
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

// accessPlan plans a filtered projection of tbl; the optimizer sees every
// column the predicate and the projection touch.
func (e *Engine) accessPlan(tbl *edw.Table, pred expr.Expr, proj []int) edw.AccessPlan {
	return e.db.PlanAccess(tbl, pred, append(expr.ColumnSet(pred), proj...))
}
