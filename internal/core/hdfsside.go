package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/cluster"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
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
	pj := newPostJoin(q)

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

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row

	// The designated JEN worker returns the final aggregate to one DB node
	// (step 9 of Figure 4).
	g.Go(func() (err error) {
		resultRows, err = e.collectRows(ctx, dbName(0), qs+"final", 1)
		return err
	})

	for i := 0; i < m; i++ {
		i := i
		g.Go(func() error { return e.dbShipProgram(ctx, qs, q, tbl, accessPlan, i, n, hF) })
	}
	for w := 0; w < n; w++ {
		w := w
		g.Go(func() error { return e.jenRepartitionProgram(ctx, qs, q, pj, scanPlan, w, n, m, dbF, hF, &decided) })
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	res := &Result{Rows: resultRows}
	if decided != nil {
		res.SwitchReason = decided.reason
		if decided.kind != keepPlan {
			res.Switched = true
			res.SwitchedTo = decided.kind.String()
		}
	}
	return res, nil
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
	tw, tRows, err := e.materialize(tbl, i, ap, q.DBProj)
	pr.fail(err)
	if adaptOn {
		// The snapshot goes out before the BF_H wait (see adaptObserveT);
		// |T'| is reported pre-pruning — an upper bound, which is what the
		// committed plan would ship if BF_H turned out useless.
		e.adaptObserveT(pr, qs, q, i, tRows)
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
func (e *Engine) jenRepartitionProgram(ctx context.Context, qs string, q *plan.JoinQuery, pj postJoin, scanPlan *jen.ScanPlan, w, n, m int, dbF, hF filterKind, decided **adaptDecision) error {
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
	// With a spill budget configured, the build side grace-spills to disk
	// instead of growing without bound.
	bud := e.budget(qs)
	ht, err := e.newJoinTable(qs, q.HDFSWireKey, pj.lane(true))
	if err != nil {
		pr.fail(err)
		ht = relop.NewMemJoinTable(q.HDFSWireKey)
	}
	defer ht.Close()
	var dbBatches []*batch.Batch
	var probeTuples int64
	// Receiver errors abort the program context (bgFail): if one receiver
	// hits an incoming MsgError, its sibling and the rest of the program must
	// not keep waiting for streams a dead peer will never finish.
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
			aw = newAdaptJENWorker(e, qs, q, b, w, n, scanKey, watch, route)
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

	// Wait for the hash table and the buffered database rows.
	pr.fail(bg.Wait())
	pr.fail(ht.FinishBuild())

	agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
	agg.SetBudget(bud)
	defer func() { bud.Release(agg.MemBytes()) }()

	if aw != nil && aw.decided() == switchBroadcast {
		// Broadcast switch: the shuffle carried no rows (ht stayed empty)
		// and dbBatches hold the full broadcast T'; join the buffered L'
		// against it locally, exactly as runBroadcast would have.
		charged := chargeBatches(bud, dbBatches)
		defer bud.Release(charged)
		if runErr == nil {
			pr.fail(e.probeLocalBroadcast(aw.takeBuffered(), dbBatches, q, pj, agg, w, bud))
		}
	} else {
		e.rec.AddAt(metrics.JoinBuildTuples, w, ht.Len())
		e.rec.AddAt(metrics.JoinProbeTuples, w, probeTuples)

		// The buffered probe side is charged to the query budget for the
		// probe's duration (the build side accounts for itself inside the
		// spilling table).
		charged := chargeBatches(bud, dbBatches)
		defer bud.Release(charged)

		// Probe with the database rows; combined layout is HDFS wire ++ DB wire.
		if runErr == nil {
			pr.fail(e.probeAndAggregateBatches(ht, dbBatches, q, pj, agg, e.cfg.WorkerThreads))
		}
		e.recordSpillStats(ht, w)
	}

	return e.finishAggregation(ctx, qs, q.GroupBy, q.Aggs, agg, w, n, runErr)
}

// newJoinTable builds the HDFS-side join table for the query: a dynamic
// hybrid hash join charging the query's shared budget when one is
// registered (RunOpts.Budget), a privately-budgeted spilling table under
// Config.SpillBudgetBytes, and the unbounded in-memory table otherwise.
// Every hash table it seals computes its lanes with lane (nil: none).
func (e *Engine) newJoinTable(qs string, keyIdx int, lane relop.LaneFunc) (relop.JoinTable, error) {
	var s *relop.SpillingHashTable
	var err error
	switch bud := e.budget(qs); {
	case bud != nil:
		s, err = relop.NewSharedSpillingHashTable(keyIdx, bud, e.cfg.SpillDir)
	case e.cfg.SpillBudgetBytes > 0:
		s, err = relop.NewSpillingHashTable(keyIdx, e.cfg.SpillBudgetBytes, e.cfg.SpillDir)
	default:
		return &relop.MemJoinTable{H: relop.NewHashTable(keyIdx).WithLane(lane)}, nil
	}
	if err != nil {
		return nil, err
	}
	return s.WithLane(lane), nil
}

// combiner joins probe rows against sealed build buckets into the combined
// layout (HDFS wire ++ DB wire) and hands the rows that pass the post-join
// predicate to its sink, one output batch at a time: a partial aggregate's
// AddBatch, the next N-way stage's shuffle, or keepBatches. The batch is on
// loan to the sink, which must copy what it keeps; the combiner reuses it.
// output counts survivors.
//
// It materialises late. Each pair first contributes only the predicate's
// columns (the early columns) to a narrow batch, and each probe row is
// copied once per bucket, not once per pair. The predicate runs over the
// narrow batch when it reaches an output-batch boundary or when a probe
// call returns, and only the surviving pairs are gathered into full
// combined rows. Output batches close every BatchRows pairs, surviving or
// not, so they hold exactly the rows, in the same order, that concatenating
// every pair and filtering BatchRows pairs at a time would. Without a
// predicate every pair survives and is gathered directly.
//
// When the predicate is a band (see postJoin), a bucket that comes with a
// lane skips the narrow batch altogether: the probe row's term is evaluated
// once, and the lane is scanned as an int64 range (bandBucket). Buckets
// without a lane, and probe values the band cannot take, run as above.
//
// probe may run on several goroutines at once (morsel threads probing one
// sealed table); it serializes on mu. The other methods are
// single-goroutine.
type combiner struct {
	size      int
	post      expr.Expr // remapped onto the narrow batch
	early     []int     // combined-layout column of each narrow column
	probeLeft bool      // the probe row is the left (HDFS wire) part
	sink      func(out *batch.Batch) error
	err       error // remapping post failed

	probeTerm expr.Expr // the band's probe-side term; nil: no band path
	lo, hi    int64     // the band's range for build value - probe value

	mu     sync.Mutex // serializes concurrent probe calls
	ready  bool       // early columns resolved (on the first pair)
	fromP  []colRef   // narrow columns read from the probe row
	fromB  []colRef   // narrow columns read from the build row
	narrow *batch.Batch
	nrow   types.Row     // scratch row of narrow
	runs   []pairRun     // the pending pairs, run by run
	probes []types.Value // copies of the pending runs' probe rows
	out    *batch.Batch
	pairs  int // pairs behind out since it was last emitted
	output int64
}

// colRef is narrow column j, read from position idx of a pair's row.
type colRef struct{ j, idx int }

// pairRun is a run of pending pairs: one probe row against consecutive
// rows of its bucket, the first of them at narrow row first.
type pairRun struct {
	first  int
	probe  types.Row
	bucket []types.Row
}

// newCombiner creates a combiner whose probe rows form the left (probeLeft)
// or the right part of the combined layout. The buckets it takes lanes from
// must come from tables whose lane function is pj.lane(!probeLeft).
func (e *Engine) newCombiner(pj postJoin, sink func(out *batch.Batch) error, probeLeft bool) *combiner {
	c := &combiner{size: e.cfg.BatchRows, sink: sink, probeLeft: probeLeft}
	if post := pj.pred; post != nil {
		c.early = expr.ColumnSet(post)
		mapping := make(map[int]int, len(c.early))
		for j, col := range c.early {
			mapping[col] = j
		}
		c.post, c.err = expr.Remap(post, mapping)
	}
	if b := pj.band; b != nil {
		// The band bounds left - right; the lane holds build values.
		if probeLeft {
			c.probeTerm, c.lo, c.hi = b.Left, -b.Hi, -b.Lo
		} else {
			c.probeTerm, c.lo, c.hi = b.Right, b.Lo, b.Hi
		}
	}
	return c
}

// resolve locates the early columns from the widths of the first pair.
func (c *combiner) resolve(probe, build types.Row) error {
	left, right := build, probe
	if c.probeLeft {
		left, right = probe, build
	}
	for j, col := range c.early {
		if col >= len(left)+len(right) {
			return fmt.Errorf("core: post-join column %d out of range (combined row has %d)", col, len(left)+len(right))
		}
		onLeft := col < len(left)
		if !onLeft {
			col -= len(left)
		}
		if onLeft == c.probeLeft {
			c.fromP = append(c.fromP, colRef{j, col})
		} else {
			c.fromB = append(c.fromB, colRef{j, col})
		}
	}
	c.ready = true
	c.narrow = batch.New(len(c.early), c.size)
	c.nrow = make(types.Row, len(c.early))
	return nil
}

// bucket joins one probe row against its bucket; it is the
// relop.BucketFunc of JoinTable probes. probeRow may alias the caller's
// scratch; the bucket's rows are sealed-table storage, held until the next
// settle.
func (c *combiner) bucket(probeRow types.Row, bucket []types.Row, lane []int64) error {
	if c.err != nil {
		return c.err
	}
	if c.post == nil {
		for _, br := range bucket {
			c.gather(probeRow, br)
			if c.pairs++; c.pairs == c.size {
				if err := c.emit(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if lane != nil && c.probeTerm != nil {
		if lo, hi, ok := c.probeRange(probeRow); ok {
			return c.bandBucket(probeRow, bucket, lane, lo, hi)
		}
	}
	var probe types.Row // the probe row's copy in the pending window
	for len(bucket) > 0 {
		if !c.ready {
			if err := c.resolve(probeRow, bucket[0]); err != nil {
				return err
			}
		}
		if probe == nil {
			at := len(c.probes)
			c.probes = append(c.probes, probeRow...)
			probe = c.probes[at:len(c.probes):len(c.probes)]
			for _, r := range c.fromP {
				c.nrow[r.j] = probe[r.idx]
			}
		}
		n := min(len(bucket), c.size-c.pairs-c.narrow.Size())
		c.runs = append(c.runs, pairRun{first: c.narrow.Size(), probe: probe, bucket: bucket[:n]})
		for _, br := range bucket[:n] {
			for _, r := range c.fromB {
				c.nrow[r.j] = br[r.idx]
			}
			c.narrow.AppendRow(c.nrow)
		}
		bucket = bucket[n:]
		if c.pairs+c.narrow.Size() == c.size {
			if err := c.settle(); err != nil {
				return err
			}
			probe = nil
		}
	}
	return nil
}

// settle runs the post-join predicate over the pending pairs and gathers
// the survivors, in pair order, into the output batch.
func (c *combiner) settle() error {
	if c.narrow == nil || c.narrow.Size() == 0 {
		return nil
	}
	if err := expr.FilterBatch(c.post, c.narrow); err != nil {
		return err
	}
	r := 0
	_ = c.narrow.Each(func(k int) error {
		for r+1 < len(c.runs) && c.runs[r+1].first <= k {
			r++
		}
		run := &c.runs[r]
		c.gather(run.probe, run.bucket[k-run.first])
		return nil
	})
	c.pairs += c.narrow.Size()
	c.narrow.Reset()
	c.runs, c.probes = c.runs[:0], c.probes[:0]
	if c.pairs == c.size {
		return c.emit()
	}
	return nil
}

// gather appends one pair's combined row to the output batch.
func (c *combiner) gather(probe, build types.Row) {
	if c.out == nil {
		c.out = batch.New(len(probe)+len(build), c.size)
	}
	if c.probeLeft {
		c.out.AppendConcat(probe, build)
	} else {
		c.out.AppendConcat(build, probe)
	}
}

// emit hands the output batch of the last BatchRows pairs to the sink.
func (c *combiner) emit() error {
	c.pairs = 0
	if c.out == nil || c.out.Len() == 0 {
		return nil // no pair of the window survived
	}
	c.output += int64(c.out.Len())
	err := c.sink(c.out)
	c.out.Reset()
	return err
}

// keepBatches is a combiner sink that keeps a copy of every output batch in
// *dst: an intermediate the plan needs whole before it can go on.
func keepBatches(dst *[]*batch.Batch) func(*batch.Batch) error {
	return func(b *batch.Batch) error {
		*dst = append(*dst, b.Clone())
		return nil
	}
}

// flush settles the pending pairs and emits the last, partial output batch.
func (c *combiner) flush() error {
	if err := c.settle(); err != nil {
		return err
	}
	if c.pairs == 0 {
		return nil
	}
	return c.emit()
}

// probeTable probes jt with every live row of pb (see bucket).
func (c *combiner) probeTable(jt relop.JoinTable, pb *batch.Batch, keyIdx int) error {
	if err := jt.ProbeBuckets(pb, keyIdx, c.bucket); err != nil {
		return err
	}
	return c.settle()
}

// probe joins every live row of pb, projected through proj, against the
// sealed table ht on pb's key column keyIdx. The projected probe row is
// materialized only for rows with a non-empty bucket.
func (c *combiner) probe(ht *relop.HashTable, pb *batch.Batch, keyIdx int, proj []int) error {
	keys := pb.Col(keyIdx)
	c.mu.Lock()
	defer c.mu.Unlock()
	var row types.Row
	err := pb.Each(func(i int) error {
		bucket, lane := ht.ProbeLane(keys[i].Int())
		if len(bucket) == 0 {
			return nil
		}
		row = row[:0]
		for _, p := range proj {
			row = append(row, pb.Col(p)[i])
		}
		return c.bucket(row, bucket, lane)
	})
	if err != nil {
		return err
	}
	return c.settle()
}

// probeAll probes ht with every batch of bs (see probeTable), then flushes.
func (c *combiner) probeAll(ht *relop.HashTable, bs []*batch.Batch, keyIdx int) error {
	mem := &relop.MemJoinTable{H: ht}
	for _, pb := range bs {
		if err := c.probeTable(mem, pb, keyIdx); err != nil {
			return err
		}
	}
	return c.flush()
}

// probeAndAggregateBatches probes the table of HDFS rows with the buffered
// database batches: probe batches drive JoinTable.ProbeBuckets and buckets
// go through a combiner, which applies the post-join predicate and folds
// survivors into the partial aggregate. Spilled matches surface during
// Drain. With threads > 1 and a purely in-memory table the probe fans out
// across goroutines; the spilling table stays sequential (its partition
// files are not safe for concurrent probing).
func (e *Engine) probeAndAggregateBatches(ht relop.JoinTable, probes []*batch.Batch, q *plan.JoinQuery, pj postJoin, agg *relop.HashAgg, threads int) error {
	if mem, isMem := ht.(*relop.MemJoinTable); isMem && threads > 1 && len(probes) > 1 {
		return e.probeAndAggregateParallel(mem, probes, q, pj, agg, threads)
	}
	cmb := e.newCombiner(pj, agg.AddBatch, false)
	for _, pb := range probes {
		if err := cmb.probeTable(ht, pb, q.DBWireKey); err != nil {
			return err
		}
	}
	if err := ht.Drain(cmb.bucket); err != nil {
		return err
	}
	if err := cmb.flush(); err != nil {
		return err
	}
	e.rec.Add(metrics.JoinOutputTuples, cmb.output)
	return nil
}

// probeAndAggregateParallel fans the probe batches out over `threads`
// goroutines against the sealed in-memory table (the probe stage of the
// paper's multi-threaded JEN worker). Each goroutine folds its matches into a
// private combiner and partial aggregate — no locks on the hot path — and the
// privates merge into agg afterwards via MergePartial. Join output and group
// totals are independent of how batches land on threads; only the per-thread
// split (metrics.JoinProbeSplit) depends on scheduling.
func (e *Engine) probeAndAggregateParallel(mem *relop.MemJoinTable, probes []*batch.Batch, q *plan.JoinQuery, pj postJoin, agg *relop.HashAgg, threads int) error {
	// Seal the flat table before any concurrent probe (idempotent — the
	// caller's FinishBuild already did this on the normal path).
	if err := mem.FinishBuild(); err != nil {
		return err
	}
	if threads > len(probes) {
		threads = len(probes)
	}
	cmbs := make([]*combiner, threads)
	aggs := make([]*relop.HashAgg, threads)
	var next atomic.Int64
	var g par.Group
	for t := 0; t < threads; t++ {
		t := t
		aggs[t] = relop.NewHashAgg(q.GroupBy, q.Aggs)
		cmbs[t] = e.newCombiner(pj, aggs[t].AddBatch, false)
		g.Go(func() error {
			var rows int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(probes) {
					break
				}
				rows += int64(probes[i].Len())
				if err := cmbs[t].probeTable(mem, probes[i], q.DBWireKey); err != nil {
					return err
				}
			}
			e.rec.AddAt(metrics.JoinProbeSplit, t, rows)
			return cmbs[t].flush()
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	var output int64
	for t, cmb := range cmbs {
		output += cmb.output
		for _, partial := range aggs[t].PartialRows() {
			if err := agg.MergePartial(partial); err != nil {
				return err
			}
		}
	}
	e.rec.Add(metrics.JoinOutputTuples, output)
	return nil
}

// finishAggregation ships this worker's partial aggregate to the designated
// worker; the designated worker merges all partials and sends the final rows
// to a single DB node (steps 7–9 of Figures 2–4). The two-table algorithms
// and the N-way executor share it. It always completes the protocol, then
// reports runErr.
func (e *Engine) finishAggregation(ctx context.Context, qs string, groupBy []expr.Expr, aggs []relop.AggSpec, agg *relop.HashAgg, w, n int, runErr error) error {
	// A worker that arrives here already failing must not block in the
	// aggregation fan-in waiting for partials that will never come: the
	// program context is aborted up front, so the receives below fail fast
	// while MsgError and the per-query teardown reach the peers.
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	pr.fail(runErr)
	desig := e.jen.DesignatedWorker()
	pb := e.newBatcher(ctx, jenName(w), qs+"partial", []string{jenName(desig)}, "", "", w)
	if runErr == nil {
		pr.fail(pb.sendRows(agg.PartialRows()))
	}
	pr.fail(pb.CloseWith(runErr))

	if w == desig {
		partials, err := e.collectRows(ctx, jenName(w), qs+"partial", n)
		pr.fail(err)
		rows, err := mergePartials(groupBy, aggs, partials)
		pr.fail(err)
		e.rec.Add(metrics.AggGroups, int64(len(rows)))
		fb := e.newBatcher(ctx, jenName(w), qs+"final", []string{dbName(0)}, "", "", w)
		if runErr == nil {
			pr.fail(fb.sendRows(rows))
		}
		pr.fail(fb.CloseWith(runErr))
	}
	return runErr
}

// mergePartials folds partial aggregate rows into the final groups.
func mergePartials(groupBy []expr.Expr, aggs []relop.AggSpec, partials []types.Row) ([]types.Row, error) {
	final := relop.NewHashAgg(groupBy, aggs)
	for _, r := range partials {
		if err := final.MergePartial(r); err != nil {
			return nil, err
		}
	}
	return final.FinalRows(), nil
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
	pj := newPostJoin(q)
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

	g, ctx := par.WithContext(ctx)
	var resultRows []types.Row
	g.Go(func() (err error) {
		resultRows, err = e.collectRows(ctx, dbName(0), qs+"final", 1)
		return err
	})

	for i := 0; i < m; i++ {
		i := i
		g.Go(func() error {
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
				return b.broadcastBatch(fb, nil)
			})
			firstErr(&err, b.CloseWith(err))
			e.rec.AddAt(metrics.DBSentTuples, i, sent)
			return err
		})
	}

	for w := 0; w < n; w++ {
		w := w
		g.Go(func() error {
			me := jenName(w)
			var runErr error
			bud := e.budget(qs)
			// Build the hash table from the broadcast T' first: local joins
			// need the whole filtered database table.
			ht := relop.NewHashTable(q.DBWireKey).WithLane(pj.lane(false))
			if relay {
				firstErr(&runErr, e.broadcastRelayRecv(ctx, qs, me, w, n, directSenders[w], ht))
			} else {
				firstErr(&runErr, e.recvBatches(ctx, me, qs+"dbrows", m, func(b *batch.Batch) error {
					return ht.InsertBatch(b)
				}))
			}
			e.rec.AddAt(metrics.JoinBuildTuples, w, ht.Len())
			charged := chargeJoinBuild(bud, ht.Len(), len(q.DBProj))
			defer bud.Release(charged)

			// Scan and probe in the pipeline; partial aggregation inline.
			// Probe rows never leave the scan batch: the wire projection is
			// materialized only for rows with a non-empty bucket. Morsel
			// workers scan and filter concurrently and serialize on the
			// combiner; totals are independent of the interleaving.
			agg := relop.NewHashAgg(q.GroupBy, q.Aggs)
			agg.SetBudget(bud)
			defer func() { bud.Release(agg.MemBytes()) }()
			cmb := e.newCombiner(pj, agg.AddBatch, true)
			scanKey := q.HDFSWire[q.HDFSWireKey]
			var probes atomic.Int64
			if runErr == nil {
				ht.Build() // seal before concurrent probes
				err := e.jen.ScanFilterBatches(jen.ScanSpec{
					Plan: scanPlan, Worker: w,
					Proj: q.HDFSScanProj, Pred: q.HDFSPred, Pruner: q.Pruner(),
					Threads: e.cfg.WorkerThreads,
					Mem:     bud,
				}, func(sb *batch.Batch) error {
					probes.Add(int64(sb.Len()))
					return cmb.probe(ht, sb, scanKey, q.HDFSWire)
				})
				firstErr(&runErr, err)
				firstErr(&runErr, cmb.flush())
			}
			e.rec.AddAt(metrics.JoinProbeTuples, w, probes.Load())
			e.rec.Add(metrics.JoinOutputTuples, cmb.output)

			return e.finishAggregation(ctx, qs, q.GroupBy, q.Aggs, agg, w, n, runErr)
		})
	}

	if err := g.Wait(); err != nil {
		return nil, err
	}
	return &Result{Rows: resultRows}, nil
}

// broadcastRelayRecv implements the JEN side of the relay scheme: batches
// from this worker's DB feeders go into the hash table AND onward to every
// other JEN worker; batches relayed by peers complete the table. Receivers
// drain the relay stream in the background, and the direct stream, whose
// callback relays, is received through streamBatches, so relays never
// deadlock.
func (e *Engine) broadcastRelayRecv(ctx context.Context, qs, me string, w, n, directSenders int, ht *relop.HashTable) error {
	var runErr error
	pr := newProg(ctx, &runErr)
	defer pr.release()
	ctx = pr.ctx
	others := make([]string, 0, n-1)
	for j := 0; j < n; j++ {
		if j != w {
			others = append(others, jenName(j))
		}
	}
	// The relay drainer and the direct-stream receiver run concurrently and
	// both feed the same hash table, so inserts must be serialized.
	var htMu sync.Mutex
	insert := func(b *batch.Batch) error {
		htMu.Lock()
		defer htMu.Unlock()
		return ht.InsertBatch(b)
	}
	var bg par.Group
	bg.Go(func() error {
		err := e.recvBatches(ctx, me, qs+"relay", n-1, insert)
		pr.bgFail(err)
		return err
	})
	rb := e.newBatcher(ctx, me, qs+"relay", others, metrics.JENShuffleTuples, metrics.JENShuffleBytes, w)
	pr.fail(e.streamBatches(ctx, me, qs+"dbrows", directSenders, func(b *batch.Batch) error {
		if err := insert(b); err != nil {
			return err
		}
		return rb.broadcastBatch(b, nil)
	}))
	pr.fail(rb.CloseWith(runErr))
	pr.fail(bg.Wait())
	return runErr
}
