package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// joinSite is what a join site states about its join: the post-join
// predicate over the combined layout it produces (left part ++ right part),
// how wide the left part is, which side it probes from, the build rows' key
// column and where the output goes.
type joinSite struct {
	pred      expr.Expr // nil: every pair survives
	leftWidth int
	probeLeft bool // the probe rows are the left part, the build rows the right
	key       int
	spill     bool // under a query budget the build may spill: a fact-build edge's table

	// The output folds into agg, the worker's partial aggregate, and counts
	// as JoinOutputTuples; without agg it goes to next, the next edge's input.
	agg  *relop.HashAgg
	next func(*batch.Batch) error
}

// joinStage is one join of a worker program — every edge of the HDFS-side
// executor, the local join after a scan gate's broadcast switch, and the
// DB-side join. It splits the site's predicate
// into its band once, when the predicate is one (expr.SplitBand; the paper's
// 0 <= days(T.date) - days(L.date) <= 1 is one), and builds the one table it
// probes with the lane of the band's build-side term attached, so its
// combiners test a bucket against one probe value as an int64 range instead
// of running the predicate per pair. It records JoinBuildTuples,
// JoinProbeTuples and JoinOutputTuples, the spill statistics, and the
// budget charge of a build that does not charge itself.
type joinStage struct {
	e    *Engine
	site joinSite
	slot int // the worker, for the per-worker counters
	bud  *mem.Budget
	band *expr.Band // nil: no band, every pair runs the predicate
	jt   *relop.HashTable
	cmb  *combiner

	mu      sync.Mutex // serializes inserts: the broadcast relay receives on two goroutines
	width   int        // the build rows' width, for the in-memory build's charge
	charged int64
	probes  atomic.Int64
}

// newJoinStage opens a join site's stage for worker slot of query qs. Under
// the query's budget (RunOpts.Budget) a spill site builds a table that
// charges the budget and spills its partitions, a dynamic hybrid hash join;
// every other build stays in memory.
func (e *Engine) newJoinStage(qs string, slot int, site joinSite) *joinStage {
	s := &joinStage{e: e, site: site, slot: slot, bud: e.budget(qs)}
	if b, ok := expr.SplitBand(site.pred, site.leftWidth); ok {
		s.band = b
	}
	out := site.next
	if site.agg != nil {
		out = site.agg.AddBatch
	}
	s.cmb = newCombiner(e.cfg.BatchRows, site.pred, s.band, site.probeLeft, out)
	if site.spill && s.bud != nil {
		s.jt = relop.NewSharedSpillingHashTable(site.key, s.bud, e.cfg.SpillDir)
	} else {
		s.jt = relop.NewHashTable(site.key, e.cfg.WorkerThreads)
	}
	s.jt.WithLane(s.lane())
	return s
}

// insert adds every live row of b to the build table: a receive sink, safe
// for concurrent use.
func (s *joinStage) insert(b *batch.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.width = b.NumCols()
	return s.jt.InsertBatch(b)
}

// seal ends the build: the table is sealed for (concurrent) probing, its
// rows count as JoinBuildTuples, and a build that is not a spill site's is
// charged to the query budget until close — a spill site's table accounts
// for itself.
func (s *joinStage) seal() error {
	err := s.jt.FinishBuild()
	s.e.rec.AddAt(metrics.JoinBuildTuples, s.slot, s.jt.Len())
	if !s.site.spill && s.bud != nil && s.jt.Len() > 0 {
		s.charged = s.jt.Len() * (int64(s.width)*16 + 48) // a boxed value per cell and a row header
		s.bud.Force(s.charged)
	}
	return err
}

// probe joins every live row of pb, its key at keyIdx, against the sealed
// table. A scan batch comes with proj, the wire projection, and probes the
// table before it is projected (relop.HashTable.ProbeBuckets). Morsel
// threads may probe at once.
func (s *joinStage) probe(pb *batch.Batch, keyIdx int, proj []int) error {
	s.probes.Add(int64(pb.Len()))
	return s.cmb.probe(s.jt, pb, keyIdx, proj)
}

// finish emits the matches a budgeted table deferred, flushes the last
// output batch and records the probe's counters: JoinProbeTuples, the output
// when it folds into the aggregate, and the table's spill statistics.
func (s *joinStage) finish() error {
	if err := s.jt.Drain(s.cmb.bucket); err != nil {
		return err
	}
	if err := s.cmb.flush(); err != nil {
		return err
	}
	s.e.rec.AddAt(metrics.JoinProbeTuples, s.slot, s.probes.Load())
	if s.site.agg != nil {
		s.e.rec.Add(metrics.JoinOutputTuples, s.cmb.output)
	}
	s.e.recordSpillStats(s.jt, s.slot)
	return nil
}

// probeAll probes with every batch of probes, its key at keyIdx, then
// finishes. Into an aggregate, with threads > 1, the batches fan out over
// threads goroutines (the probe stage of the paper's multi-threaded JEN
// worker): each folds its matches through a private combiner into a private
// partial aggregate — no contention on the hot path — and the privates
// merge into the site's aggregate afterwards. Join output and group totals
// are independent of how batches land on threads; only the per-thread split
// (metrics.JoinProbeSplit) depends on scheduling. The matches a budgeted
// table defers are drained by finish, after the threads.
func (s *joinStage) probeAll(probes []*batch.Batch, keyIdx, threads int) error {
	if s.site.agg == nil || threads <= 1 || len(probes) <= 1 {
		for _, pb := range probes {
			if err := s.probe(pb, keyIdx, nil); err != nil {
				return err
			}
		}
		return s.finish()
	}
	threads = min(threads, len(probes))
	cmbs := make([]*combiner, threads)
	aggs := make([]*relop.HashAgg, threads)
	var next atomic.Int64
	var g par.Group
	for t := range cmbs {
		aggs[t] = s.site.agg.Sibling()
		cmbs[t] = newCombiner(s.e.cfg.BatchRows, s.site.pred, s.band, s.site.probeLeft, aggs[t].AddBatch)
		g.Go(func() error {
			var rows int64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(probes) {
					break
				}
				rows += int64(probes[i].Len())
				if err := cmbs[t].probe(s.jt, probes[i], keyIdx, nil); err != nil {
					return err
				}
			}
			s.probes.Add(rows)
			s.e.rec.AddAt(metrics.JoinProbeSplit, t, rows)
			return cmbs[t].flush()
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	for t, cmb := range cmbs {
		s.cmb.output += cmb.output
		for _, partial := range aggs[t].PartialRows() {
			if err := s.site.agg.MergePartial(partial); err != nil {
				return err
			}
		}
	}
	return s.finish() // the stage's own combiner holds nothing: this records
}

// close releases the build's budget charge and the table.
func (s *joinStage) close() {
	s.bud.Release(s.charged)
	_ = s.jt.Close()
}

// combiner joins probe rows against sealed build buckets into the combined
// layout and hands the rows that pass the post-join predicate to its sink,
// one output batch at a time: a partial aggregate's AddBatch, the next N-way
// stage's shuffle, or keepBatches. The batch is on
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
// When the predicate is a band (see joinStage), a bucket that comes with a
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

// newCombiner creates a combiner of size-pair output batches whose probe
// rows form the left (probeLeft) or the right part of the combined layout.
// band, when set, is pred's band split at that layout's left width, and the
// buckets' lanes hold its build-side term (joinStage.lane).
func newCombiner(size int, pred expr.Expr, band *expr.Band, probeLeft bool, sink func(out *batch.Batch) error) *combiner {
	c := &combiner{size: size, sink: sink, probeLeft: probeLeft}
	if pred != nil {
		c.early = expr.ColumnSet(pred)
		mapping := make(map[int]int, len(c.early))
		for j, col := range c.early {
			mapping[col] = j
		}
		c.post, c.err = expr.Remap(pred, mapping)
	}
	if band != nil {
		// The band bounds left - right; the lane holds build values.
		if probeLeft {
			c.probeTerm, c.lo, c.hi = band.Left, -band.Hi, -band.Lo
		} else {
			c.probeTerm, c.lo, c.hi = band.Right, band.Lo, band.Hi
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
// relop.BucketFunc of table probes. probeRow may alias the caller's
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

// probe joins every live row of pb, its key at keyIdx, against the sealed
// table jt (see bucket). With proj, pb is a scan batch, and a row takes the
// wire layout (proj's columns) only where it is joined.
func (c *combiner) probe(jt *relop.HashTable, pb *batch.Batch, keyIdx int, proj []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := jt.ProbeBuckets(pb, keyIdx, proj, c.bucket); err != nil {
		return err
	}
	return c.settle()
}
