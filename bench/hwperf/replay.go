package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/cluster"
	"hybridwh/internal/compress"
	"hybridwh/internal/core"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

// The layer replay rebuilds a workload's pipeline stage by stage from the
// loaded data, single-threaded, calling each layer's exported functions and
// wrapping every call in a span:
//
//	edw scan → edw Bloom build → HDFS read → decompress → HWC decode →
//	predicate filter → Bloom probe → partition → scatter → encode → bus →
//	decode → hash build → probe → concat → post-join eval → aggregate
//
// It is a diagnostic of the layers on the workload's own rows, not a second
// executor: the final join always has the repartition shape (build L',
// probe with T'), whichever algorithm the workload runs. For the DB-side
// algorithms the frames cross to DB endpoints and the join stages are
// reported as the DB-side join.

const replayQuery = "replay"

// replaySpec is the pipeline a workload's query decomposes into.
type replaySpec struct {
	hdfsTable string
	scanProj  []int
	pred      expr.Expr
	pruner    *format.Pruner
	wire      []int // scan-layout columns shipped
	scanKey   int   // join key in the scan layout
	wireKey   int   // join key in the wire layout

	dbTable   string
	dbPred    expr.Expr
	dbProj    []int
	dbWireKey int
	dbKeyBase int

	postJoin expr.Expr
	groupBy  []expr.Expr
	aggs     []relop.AggSpec

	useBloom bool // the algorithm prunes the scan with BF_DB
	dbSide   bool // the final join runs in the database
}

func specFromJoin(jq *plan.JoinQuery, alg core.Algorithm) replaySpec {
	return replaySpec{
		hdfsTable: jq.HDFSTable, scanProj: jq.HDFSScanProj, pred: jq.HDFSPred, pruner: jq.Pruner(),
		wire: jq.HDFSWire, scanKey: jq.HDFSWire[jq.HDFSWireKey], wireKey: jq.HDFSWireKey,
		dbTable: jq.DBTable, dbPred: jq.DBPred, dbProj: jq.DBProj, dbWireKey: jq.DBWireKey, dbKeyBase: jq.DBJoinColBase,
		postJoin: jq.PostJoin, groupBy: jq.GroupBy, aggs: jq.Aggs,
		useBloom: alg == core.DBSideBloom || alg == core.RepartitionBloom || alg == core.Zigzag,
		dbSide:   alg == core.DBSide || alg == core.DBSideBloom,
	}
}

// specFromMulti replays the first plain (non-snowflake) edge of a star
// plan: fact ⋈ one dimension, with that dimension's cascaded Bloom filter.
// Grouping and aggregates are kept only when they read the fact wire alone.
func specFromMulti(mq *plan.MultiQuery) (replaySpec, error) {
	for _, ed := range mq.Edges {
		if ed.Dim.Sub != nil {
			continue
		}
		sp := replaySpec{
			hdfsTable: mq.FactTable, scanProj: mq.FactScanProj, pred: mq.FactPred, pruner: mq.Pruner(),
			wire: mq.FactWire, scanKey: mq.FactWire[ed.FactKeyCol], wireKey: ed.FactKeyCol,
			dbTable: ed.Dim.Table, dbPred: ed.Dim.Pred, dbProj: ed.Dim.Proj,
			dbWireKey: ed.DimKeyWire, dbKeyBase: ed.Dim.Proj[ed.DimKeyWire],
			useBloom: ed.UseBloom,
		}
		var cols []int
		for _, g := range mq.GroupBy {
			cols = g.Cols(cols)
		}
		for _, a := range mq.Aggs {
			if a.Input != nil {
				cols = a.Input.Cols(cols)
			}
		}
		fits := true
		for _, c := range cols {
			fits = fits && c < len(mq.FactWire)
		}
		if fits {
			sp.groupBy, sp.aggs = mq.GroupBy, mq.Aggs
		}
		return sp, nil
	}
	return replaySpec{}, fmt.Errorf("hwperf: star plan has no plain edge to replay")
}

// tracingSource records one hdfs.readat span per positioned read.
type tracingSource struct {
	src    format.Source
	tr     *tracer
	parent int
}

func (s *tracingSource) Size() int64 { return s.src.Size() }

func (s *tracingSource) ReadAt(off int64, n int) ([]byte, error) {
	id := s.tr.start(s.parent, replayQuery, "hdfs.readat")
	b, err := s.src.ReadAt(off, n)
	s.tr.end(id, 0, 0, int64(len(b)))
	return b, err
}

// replayer carries the replay's state between stages.
type replayer struct {
	in   *instance
	sp   replaySpec
	tr   *tracer
	root int
	r    *runResult

	tbl   *edw.Table
	tw    [][]types.Row // T' per DB worker
	bf    *bloom.Filter // BF_DB as the database builds it
	tkeys map[int64]bool

	frames [][][]byte // encoded L' frames per destination
	keys   []int64    // L' join keys in scan order
	tables []*relop.MemJoinTable
	width  int // wire width

	bloomNonMember, bloomFalsePos int64
	maxBucket, hotShare           float64
	spillDecode                   time.Duration // decode time inside the spill-build span
}

func (rp *replayer) span(name string) int { return rp.tr.start(rp.root, replayQuery, name) }

// replayLayers runs every stage and fills the per-layer metrics.
func replayLayers(ctx context.Context, in *instance, sp replaySpec, tr *tracer, r *runResult) error {
	rp := &replayer{in: in, sp: sp, tr: tr, r: r, width: len(sp.wire)}
	rp.root = tr.start(0, replayQuery, "replay")
	defer func() { tr.end(rp.root, 0, 0, 0) }()
	for _, stage := range []func(context.Context) error{
		rp.dbSide, rp.scanSide, rp.bus, rp.buildSide, rp.probeSide,
		rp.spillBuild, rp.skewLayer, rp.formatExtras, rp.edwLoad, rp.realScan,
	} {
		if err := stage(ctx); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("hwperf: replay: %w", context.Cause(ctx))
		}
	}
	rp.metrics()
	return nil
}

// dbSide replays the database's part: the T' scan per worker, the BF_DB
// build, and the bare Bloom insert kernel over the same keys.
func (rp *replayer) dbSide(context.Context) error {
	db := rp.in.w.DB()
	tbl, err := db.Table(rp.sp.dbTable)
	if err != nil {
		return fmt.Errorf("hwperf: replay: %w", err)
	}
	rp.tbl = tbl
	need := append(append([]int(nil), rp.sp.dbProj...), expr.ColumnSet(rp.sp.dbPred)...)
	ap := db.PlanAccess(tbl, rp.sp.dbPred, need)
	id := rp.span("edw.scan")
	var out int64
	for i := 0; i < db.Workers(); i++ {
		rows, err := db.FilterProject(tbl, i, ap, rp.sp.dbProj)
		if err != nil {
			return fmt.Errorf("hwperf: replay edw scan: %w", err)
		}
		rp.tw = append(rp.tw, rows)
		out += int64(len(rows))
	}
	rp.tr.end(id, tbl.Rows(), out, 0)

	cfg := rp.in.w.Config()
	id = rp.span("edw.bloom_build")
	rp.bf, err = db.BuildBloom(tbl, rp.sp.dbPred, rp.sp.dbKeyBase, cfg.BloomBits, cfg.BloomHashes)
	if err != nil {
		return fmt.Errorf("hwperf: replay bloom build: %w", err)
	}
	rp.tr.end(id, tbl.Rows(), out, int64(rp.bf.SizeBytes()))

	rp.tkeys = map[int64]bool{}
	hashes := make([]uint64, 0, out)
	for _, rows := range rp.tw {
		for _, row := range rows {
			k := row[rp.sp.dbWireKey].Int()
			rp.tkeys[k] = true
			hashes = append(hashes, types.BloomHashKey(k))
		}
	}
	fresh := bloom.New(cfg.BloomBits, cfg.BloomHashes)
	id = rp.span("bloom.add")
	fresh.AddHashes(hashes)
	rp.tr.end(id, int64(len(hashes)), int64(len(hashes)), 0)
	return nil
}

// scanSide replays the HDFS side file by file: read, decompress, decode,
// filter, Bloom-probe, partition, scatter into per-destination buffers and
// encode each full buffer as a wire frame.
func (rp *replayer) scanSide(context.Context) error {
	w := rp.in.w
	cat, err := w.Catalog().Lookup(rp.sp.hdfsTable)
	if err != nil {
		return fmt.Errorf("hwperf: replay: %w", err)
	}
	jc := w.Engine().JEN()
	rp.frames = make([][][]byte, workers)
	bufs := make([]*batch.Batch, workers)
	for d := range bufs {
		bufs[d] = batch.New(rp.width, jc.BatchRows())
	}
	encode := func(parent, d int) {
		id := rp.tr.start(parent, replayQuery, "batch.encode")
		payload := batch.EncodeBatch(bufs[d])
		rp.tr.end(id, int64(bufs[d].Len()), int64(bufs[d].Len()), int64(len(payload)))
		rp.frames[d] = append(rp.frames[d], payload)
		bufs[d].Reset()
	}
	var hashes []uint64 // per file: one hash and one verdict per live row
	var hits []bool
	var dests []int
	for _, path := range w.HDFS().List(cat.Path) {
		src := jc.Source(path, -1)
		meta, err := format.ReadHWCMeta(src)
		if err != nil {
			return fmt.Errorf("hwperf: replay footer %s: %w", path, err)
		}
		groups := make([]int, len(meta.Groups))
		for i := range groups {
			groups[i] = i
		}
		if err := rp.decompress(src, meta); err != nil {
			return err
		}

		id := rp.span("format.scan_hwc")
		var scanned []*batch.Batch
		pool := batch.NewPool(len(rp.sp.scanProj), jc.BatchRows())
		st, err := format.ScanHWCBatches(&tracingSource{src: src, tr: rp.tr, parent: id}, meta, groups,
			rp.sp.scanProj, rp.sp.pruner, true, pool, func(b *batch.Batch) error {
				scanned = append(scanned, b) // kept, not recycled: the later stages read it
				return nil
			})
		if err != nil {
			return fmt.Errorf("hwperf: replay scan %s: %w", path, err)
		}
		rp.tr.end(id, st.RowsRead, st.RowsRead, st.BytesRead)

		id = rp.span("expr.filter")
		var in, out int64
		for _, b := range scanned {
			in += int64(b.Size())
			if err := expr.FilterBatch(rp.sp.pred, b); err != nil {
				return fmt.Errorf("hwperf: replay filter: %w", err)
			}
			out += int64(b.Len())
		}
		rp.tr.end(id, in, out, 0)

		// The probe runs on every workload so the kernel is always measured;
		// it narrows the flow only where the algorithm uses BF_DB. Hashing
		// and probing sit inside the span, as in the scan's process stage;
		// the membership bookkeeping behind pass_frac and fp_frac does not.
		hashes, hits = hashes[:0], hits[:0]
		id = rp.span("bloom.test")
		for _, b := range scanned {
			keys := b.Col(rp.sp.scanKey)
			from := len(hashes)
			_ = b.Each(func(i int) error {
				hashes = append(hashes, types.BloomHashKey(keys[i].Int()))
				return nil
			})
			hits = rp.bf.TestHashes(hashes[from:], hits)
		}
		var passed int64
		for _, h := range hits {
			if h {
				passed++
			}
		}
		rp.tr.end(id, int64(len(hits)), passed, 0)
		j := 0
		for _, b := range scanned {
			keys := b.Col(rp.sp.scanKey)
			from := j
			_ = b.Each(func(i int) error {
				if !rp.tkeys[keys[i].Int()] {
					rp.bloomNonMember++
					if hits[j] {
						rp.bloomFalsePos++
					}
				}
				j++
				return nil
			})
			if rp.sp.useBloom {
				k := from
				b.Filter(func(int) bool { ok := hits[k]; k++; return ok })
			}
		}

		id = rp.span("cluster.partition")
		dests = dests[:0]
		var nkeys int64
		for _, b := range scanned {
			keys := b.Col(rp.sp.scanKey)
			_ = b.Each(func(i int) error {
				dests = append(dests, cluster.PartitionFor(keys[i].Int(), workers))
				return nil
			})
		}
		nkeys = int64(len(dests))
		rp.tr.end(id, nkeys, nkeys, 0)

		id = rp.span("batch.scatter")
		j = 0
		for _, b := range scanned {
			keys := b.Col(rp.sp.scanKey)
			_ = b.Each(func(i int) error {
				d := dests[j]
				j++
				rp.keys = append(rp.keys, keys[i].Int())
				bufs[d].AppendFrom(b, i, rp.sp.wire)
				if bufs[d].Full() {
					encode(id, d)
				}
				return nil
			})
		}
		rp.tr.end(id, nkeys, nkeys, 0)
	}
	id := rp.span("batch.scatter")
	for d := range bufs {
		if bufs[d].Size() > 0 {
			encode(id, d)
		}
	}
	rp.tr.end(id, 0, 0, 0)
	return nil
}

// decompress reads the projected chunks of one file (untimed) and decodes
// them under a compress.decode span — the same bytes the scan is about to
// decompress again, timed here on their own because the format reader does
// not expose the step.
func (rp *replayer) decompress(src format.Source, meta *format.HWCMeta) error {
	var raws [][]byte
	for _, g := range meta.Groups {
		for _, c := range rp.sp.scanProj {
			raw, err := src.ReadAt(g.Cols[c].Off, g.Cols[c].Len)
			if err != nil {
				return fmt.Errorf("hwperf: replay read chunk: %w", err)
			}
			raws = append(raws, raw)
		}
	}
	id := rp.span("compress.decode")
	var in, out int64
	for _, raw := range raws {
		plain, err := compress.Decode(raw)
		if err != nil {
			return fmt.Errorf("hwperf: replay decompress: %w", err)
		}
		in += int64(len(raw))
		out += int64(len(plain))
	}
	rp.tr.end(id, in, out, out)
	return nil
}

// bus replays the workload's frames over both transports: 8 + 8 endpoints,
// every frame sent from a JEN endpoint to its destination (a JEN peer, or a
// DB worker for the DB-side algorithms) and drained by a receiver.
func (rp *replayer) bus(ctx context.Context) error {
	for _, tp := range []struct {
		name string
		bus  netsim.Bus
	}{{"netsim.chan", netsim.NewChanBus(0)}, {"netsim.tcp", netsim.NewTCPBus(0)}} {
		err := rp.busOnce(ctx, tp.name, tp.bus)
		if cerr := tp.bus.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("hwperf: replay close %s: %w", tp.name, cerr)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (rp *replayer) busOnce(ctx context.Context, name string, bus netsim.Bus) error {
	destName := cluster.JENName
	if rp.sp.dbSide {
		destName = cluster.DBName
	}
	inboxes := make([]<-chan netsim.Envelope, workers)
	for i := 0; i < workers; i++ {
		for _, n := range []string{cluster.JENName(i), cluster.DBName(i)} {
			ch, err := bus.Register(n)
			if err != nil {
				return fmt.Errorf("hwperf: replay register %s: %w", n, err)
			}
			if n == destName(i) {
				inboxes[i] = ch
			}
		}
	}
	var frames, bytes int64
	for _, fs := range rp.frames {
		frames += int64(len(fs))
		for _, f := range fs {
			bytes += int64(len(f))
		}
	}
	id := rp.span(name)
	g, gctx := par.WithContext(ctx)
	for d := 0; d < workers; d++ {
		g.Go(func() error {
			for {
				select {
				case env := <-inboxes[d]:
					switch env.Type {
					case netsim.MsgEOS:
						return nil
					case netsim.MsgError:
						return fmt.Errorf("hwperf: replay bus: abort from %s", env.From)
					default: // MsgRows: drained, the payload was the point
					}
				case <-gctx.Done():
					return fmt.Errorf("hwperf: replay bus: %w", context.Cause(gctx))
				}
			}
		})
	}
	g.Go(func() error {
		k := 0
		for d, fs := range rp.frames {
			for _, f := range fs {
				from := cluster.JENName(k % workers)
				k++
				if err := bus.Send(from, destName(d), netsim.Msg{Type: netsim.MsgRows, Stream: "replay", Payload: f}); err != nil {
					return fmt.Errorf("hwperf: replay send: %w", err)
				}
			}
			if err := bus.Send(cluster.JENName(0), destName(d), netsim.Msg{Type: netsim.MsgEOS, Stream: "replay"}); err != nil {
				return fmt.Errorf("hwperf: replay send eos: %w", err)
			}
		}
		return nil
	})
	err := g.Wait()
	rp.tr.end(id, frames, frames, bytes)
	return err
}

// buildSide decodes each destination's frames and builds its hash table,
// frame by frame as the engine's receive loop does.
func (rp *replayer) buildSide(context.Context) error {
	rp.tables = make([]*relop.MemJoinTable, workers)
	scratch := batch.New(rp.width, 0)
	for d, fs := range rp.frames {
		ht := relop.NewMemJoinTable(rp.sp.wireKey)
		rp.tables[d] = ht
		for _, f := range fs {
			id := rp.span("batch.decode")
			if err := batch.DecodeBatch(f, scratch); err != nil {
				return fmt.Errorf("hwperf: replay decode: %w", err)
			}
			rp.tr.end(id, int64(scratch.Len()), int64(scratch.Len()), int64(len(f)))
			id = rp.span("relop.build")
			if err := ht.InsertBatch(scratch); err != nil {
				return fmt.Errorf("hwperf: replay insert: %w", err)
			}
			rp.tr.end(id, int64(scratch.Len()), int64(scratch.Len()), 0)
		}
		id := rp.span("relop.build")
		err := ht.FinishBuild()
		rp.tr.end(id, 0, 0, 0)
		if err != nil {
			return fmt.Errorf("hwperf: replay build: %w", err)
		}
		if mb := ht.H.MaxBucket(); float64(mb) > rp.maxBucket {
			rp.maxBucket = float64(mb)
		}
	}
	return nil
}

// probeSide routes T' to the tables by the agreed hash and probes twice:
// once with an emit that only counts (relop.probe), once with the engine's
// emit — concatenate into a combined batch, and on every full batch run the
// post-join predicate, evaluate the grouping expressions and aggregate.
// Concat time is the second pass's self time minus the first pass.
func (rp *replayer) probeSide(context.Context) error {
	probes := make([][]*batch.Batch, workers)
	rows := 0
	for _, tw := range rp.tw {
		for _, row := range tw {
			d := cluster.PartitionFor(row[rp.sp.dbWireKey].Int(), workers)
			n := len(probes[d])
			if n == 0 || probes[d][n-1].Full() {
				probes[d] = append(probes[d], batch.New(len(rp.sp.dbProj), rp.in.w.Engine().JEN().BatchRows()))
				n++
			}
			probes[d][n-1].AppendRow(row)
			rows++
		}
	}

	id := rp.span("relop.probe")
	var pairs int64
	for d, pbs := range probes {
		for _, pb := range pbs {
			err := rp.tables[d].ProbeBatch(pb, rp.sp.dbWireKey, func(_, _ types.Row) error { pairs++; return nil })
			if err != nil {
				return fmt.Errorf("hwperf: replay probe: %w", err)
			}
		}
	}
	rp.tr.end(id, int64(rows), pairs, 0)

	agg := relop.NewHashAgg(rp.sp.groupBy, rp.sp.aggs)
	out := batch.New(rp.width+len(rp.sp.dbProj), rp.in.w.Engine().JEN().BatchRows())
	var scratch []types.Value
	id = rp.span("batch.concat")
	flush := func() error {
		if out.Size() == 0 {
			return nil
		}
		eid := rp.tr.start(id, replayQuery, "expr.eval")
		n := int64(out.Size())
		if err := expr.FilterBatch(rp.sp.postJoin, out); err != nil {
			return fmt.Errorf("hwperf: replay post-join: %w", err)
		}
		for _, g := range rp.sp.groupBy {
			var err error
			if scratch, err = expr.EvalBatchInto(g, out, scratch[:0]); err != nil {
				return fmt.Errorf("hwperf: replay group-by eval: %w", err)
			}
		}
		rp.tr.end(eid, n, int64(out.Len()), 0)
		if len(rp.sp.aggs) > 0 || len(rp.sp.groupBy) > 0 {
			aid := rp.tr.start(id, replayQuery, "relop.agg")
			if err := agg.AddBatch(out); err != nil {
				return fmt.Errorf("hwperf: replay aggregate: %w", err)
			}
			rp.tr.end(aid, int64(out.Len()), agg.NumGroups(), 0)
		}
		out.Reset()
		return nil
	}
	for d, pbs := range probes {
		for _, pb := range pbs {
			err := rp.tables[d].ProbeBatch(pb, rp.sp.dbWireKey, func(l, r types.Row) error {
				out.AppendConcat(l, r)
				if out.Full() {
					return flush()
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	err := flush()
	rp.tr.end(id, pairs, pairs, 0)
	return err
}

// spillBuild builds destination 0's share again as a spilling table whose
// budget holds a quarter of it, so partitions evict.
func (rp *replayer) spillBuild(context.Context) error {
	var bytes int64
	for _, f := range rp.frames[0] {
		bytes += int64(len(f))
	}
	if bytes == 0 {
		return nil
	}
	ht, err := relop.NewSpillingHashTable(rp.sp.wireKey, bytes/4+1, spillDir)
	if err != nil {
		return fmt.Errorf("hwperf: replay spill table: %w", err)
	}
	scratch := batch.New(rp.width, 0)
	var rows int64
	var decode time.Duration
	id := rp.span("relop.spill_build")
	for _, f := range rp.frames[0] {
		t0 := time.Now()
		if err := batch.DecodeBatch(f, scratch); err != nil {
			return fmt.Errorf("hwperf: replay decode: %w", err)
		}
		decode += time.Since(t0)
		rows += int64(scratch.Len())
		if err := ht.InsertBatch(scratch); err != nil {
			return fmt.Errorf("hwperf: replay spill insert: %w", err)
		}
	}
	err = ht.FinishBuild()
	rp.tr.end(id, rows, rows, ht.Evictions)
	rp.spillDecode = decode
	if cerr := ht.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("hwperf: replay spill build: %w", err)
	}
	return nil
}

// skewLayer feeds L's surviving keys to the heavy-hitter sketch and routes
// them through the hybrid partitioner built from the sketch's hot set.
func (rp *replayer) skewLayer(context.Context) error {
	sk := skew.NewSketch(256)
	id := rp.span("skew.sketch_add")
	for _, k := range rp.keys {
		sk.Add(k)
	}
	rp.tr.end(id, int64(len(rp.keys)), int64(len(rp.keys)), 0)
	rp.hotShare = sk.HottestShare()
	p := skew.NewPartitioner(workers, skew.NewHotSet(sk.Hot(0.05)), 0)
	var sink int
	id = rp.span("skew.route")
	for _, k := range rp.keys {
		sink += p.Route(k)
	}
	rp.tr.end(id, int64(len(rp.keys)), int64(sink%2), 0)
	return nil
}

// formatExtras times the write path and the text format on a sample of the
// table's own rows: the first file, decoded in full.
func (rp *replayer) formatExtras(context.Context) error {
	w := rp.in.w
	cat, err := w.Catalog().Lookup(rp.sp.hdfsTable)
	if err != nil {
		return fmt.Errorf("hwperf: replay: %w", err)
	}
	paths := w.HDFS().List(cat.Path)
	src := w.Engine().JEN().Source(paths[0], -1)
	meta, err := format.ReadHWCMeta(src)
	if err != nil {
		return fmt.Errorf("hwperf: replay footer: %w", err)
	}
	groups := make([]int, len(meta.Groups))
	for i := range groups {
		groups[i] = i
	}
	var rows []types.Row
	if _, err := format.ScanHWC(src, meta, groups, nil, nil, false, func(r types.Row) error {
		rows = append(rows, r.Clone())
		return nil
	}); err != nil {
		return fmt.Errorf("hwperf: replay sample scan: %w", err)
	}
	n := int64(len(rows))

	var hwc bytes.Buffer
	id := rp.span("format.hwc_write")
	hw, err := format.NewHWCWriter(&hwc, cat.Schema, format.HWCOptions{})
	if err != nil {
		return fmt.Errorf("hwperf: replay hwc writer: %w", err)
	}
	for _, r := range rows {
		if err := hw.Write(r); err != nil {
			return fmt.Errorf("hwperf: replay hwc write: %w", err)
		}
	}
	if err := hw.Close(); err != nil {
		return fmt.Errorf("hwperf: replay hwc close: %w", err)
	}
	rp.tr.end(id, n, n, int64(hwc.Len()))

	var text bytes.Buffer
	tw := format.NewTextWriter(&text, cat.Schema)
	for _, r := range rows {
		if err := tw.Write(r); err != nil {
			return fmt.Errorf("hwperf: replay text write: %w", err)
		}
	}
	pool := batch.NewPool(cat.Schema.Len(), w.Engine().JEN().BatchRows())
	id = rp.span("format.text_parse")
	st, err := format.ScanTextBatches(format.BytesSource(text.Bytes()), cat.Schema, 0, int64(text.Len()), nil, pool,
		func(b *batch.Batch) error { pool.Put(b); return nil })
	if err != nil {
		return fmt.Errorf("hwperf: replay text parse: %w", err)
	}
	rp.tr.end(id, st.RowsRead, st.RowsRead, st.BytesRead)
	return nil
}

// realScan runs the engine's own scan — every JEN worker at once, morsel
// threads on, the workload's predicate and Bloom filter — with a yield that
// discards the batches.
func (rp *replayer) realScan(context.Context) error {
	jc := rp.in.w.Engine().JEN()
	sp, err := jc.PlanScan(rp.sp.hdfsTable)
	if err != nil {
		return fmt.Errorf("hwperf: replay plan scan: %w", err)
	}
	var filter jen.KeyFilter
	if rp.sp.useBloom {
		filter = jen.BloomKeyFilter{F: rp.bf}
	}
	id := rp.span("jen.scan_filter")
	err = par.ForEach(jc.Workers(), func(wk int) error {
		return jc.ScanFilterBatches(jen.ScanSpec{
			Plan: sp, Worker: wk, Proj: rp.sp.scanProj, Pred: rp.sp.pred, Pruner: rp.sp.pruner,
			DBFilter: filter, BloomKeyIdx: rp.sp.scanKey, Threads: runtime.GOMAXPROCS(0),
		}, func(*batch.Batch) error { return nil })
	})
	rp.tr.end(id, sp.Table.Rows, 0, jc.Recorder().Get(metrics.JENScanBytes))
	if err != nil {
		return fmt.Errorf("hwperf: replay scan filter: %w", err)
	}
	return nil
}

// edwLoad loads the workload's database table into a scratch database the
// way set-up does — load, statistics, indexes — with row generation outside
// the span.
func (rp *replayer) edwLoad(context.Context) error {
	var rows []types.Row
	collect := func(r types.Row) error { rows = append(rows, r); return nil }
	schema := rp.tbl.Schema
	var dist, buckets int
	var indexes [][]int
	var err error
	if rp.in.wl.star {
		err = rp.in.w.Star().GenDim(rp.sp.dbTable, collect)
		key, attr := schema.MustColIndex("key"), schema.MustColIndex("attr")
		dist, buckets, indexes = key, 64, [][]int{{attr}, {attr, key}}
	} else {
		err = rp.in.w.Data().GenT(collect)
		cor, ind := schema.MustColIndex("corPred"), schema.MustColIndex("indPred")
		dist, buckets = schema.MustColIndex("uniqKey"), 128
		indexes = [][]int{{cor, ind}, {cor, ind, schema.MustColIndex("joinKey")}}
	}
	if err != nil {
		return fmt.Errorf("hwperf: replay generate %s: %w", rp.sp.dbTable, err)
	}
	id := rp.span("edw.load")
	defer func() { rp.tr.end(id, int64(len(rows)), int64(len(rows)), 0) }()
	db, err := edw.New(workers, metrics.New())
	if err != nil {
		return fmt.Errorf("hwperf: replay scratch db: %w", err)
	}
	tbl, err := db.CreateTable(rp.sp.dbTable, schema, dist)
	if err != nil {
		return fmt.Errorf("hwperf: replay create table: %w", err)
	}
	const loadBatch = 8192
	for lo := 0; lo < len(rows); lo += loadBatch {
		hi := lo + loadBatch
		if hi > len(rows) {
			hi = len(rows)
		}
		if err := tbl.Load(rows[lo:hi]); err != nil {
			return fmt.Errorf("hwperf: replay load: %w", err)
		}
	}
	tbl.BuildStats(buckets)
	for i, cols := range indexes {
		if err := tbl.CreateIndex(fmt.Sprintf("ix%d", i), cols); err != nil {
			return fmt.Errorf("hwperf: replay index: %w", err)
		}
	}
	return nil
}

// metrics turns the replay's spans into the per-layer numbers: ns per row
// is span self time over rows in (rows out for the probe, whose cost is per
// match).
func (rp *replayer) metrics() {
	t := totals(rp.tr.snapshot())
	get := func(name string) spanTotals {
		if s := t[name]; s != nil {
			return *s
		}
		return spanTotals{}
	}
	per := func(d time.Duration, n int64) float64 {
		if n <= 0 || d < 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b int64) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	mbps := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / d.Seconds()
	}
	set := rp.r.set

	scan, cmp, rd := get("format.scan_hwc"), get("compress.decode"), get("hdfs.readat")
	set("format.hwc_decode_ns_per_row", per(scan.self-cmp.dur, scan.rowsIn))
	set("format.hwc_bytes_per_row", ratio(scan.bytes, scan.rowsIn))
	set("format.hwc_write_ns_per_row", per(get("format.hwc_write").self, get("format.hwc_write").rowsIn))
	set("format.text_parse_ns_per_row", per(get("format.text_parse").self, get("format.text_parse").rowsIn))
	set("compress.decode_mb_per_s", mbps(cmp.bytes, cmp.dur))
	set("hdfs.readat_mb_per_s", mbps(rd.bytes, rd.dur))

	flt, ev := get("expr.filter"), get("expr.eval")
	set("expr.filter_ns_per_row", per(flt.self, flt.rowsIn))
	set("expr.filter_pass_frac", ratio(flt.rowsOut, flt.rowsIn))
	set("expr.eval_ns_per_row", per(ev.self, ev.rowsIn))

	add, test := get("bloom.add"), get("bloom.test")
	set("bloom.add_ns_per_key", per(add.self, add.rowsIn))
	set("bloom.test_ns_per_key", per(test.self, test.rowsIn))
	set("bloom.pass_frac", ratio(test.rowsOut, test.rowsIn))
	set("bloom.fp_frac", ratio(rp.bloomFalsePos, rp.bloomNonMember))

	enc, dec := get("batch.encode"), get("batch.decode")
	probe, concat := get("relop.probe"), get("batch.concat")
	set("batch.encode_ns_per_row", per(enc.self, enc.rowsIn))
	set("batch.wire_bytes_per_row", ratio(enc.bytes, enc.rowsIn))
	set("batch.decode_ns_per_row", per(dec.self, dec.rowsIn))
	set("batch.concat_ns_per_row", per(concat.self-probe.dur, concat.rowsIn))

	ch, tcp := get("netsim.chan"), get("netsim.tcp")
	if ch.dur > 0 {
		set("netsim.chan_frames_per_s", float64(ch.rowsIn)/ch.dur.Seconds())
		set("netsim.chan_mb_per_s", mbps(ch.bytes, ch.dur))
	}
	if tcp.dur > 0 {
		set("netsim.tcp_frames_per_s", float64(tcp.rowsIn)/tcp.dur.Seconds())
	}

	part, route, sk := get("cluster.partition"), get("skew.route"), get("skew.sketch_add")
	set("cluster.partition_ns_per_key", per(part.self, part.rowsIn))
	set("skew.route_ns_per_key", per(route.self, route.rowsIn))
	set("skew.sketch_add_ns_per_key", per(sk.self, sk.rowsIn))
	set("skew.hot_share", rp.hotShare)

	build, agg, spill := get("relop.build"), get("relop.agg"), get("relop.spill_build")
	set("relop.build_ns_per_row", per(build.self, build.rowsIn))
	set("relop.probe_ns_per_row", per(probe.self, probe.rowsOut))
	set("relop.agg_ns_per_row", per(agg.self, agg.rowsIn))
	set("relop.max_bucket", rp.maxBucket)
	set("relop.spill_build_ns_per_row", per(spill.self-rp.spillDecode, spill.rowsIn))

	es, eb, el := get("edw.scan"), get("edw.bloom_build"), get("edw.load")
	set("edw.scan_ns_per_row", per(es.self, es.rowsIn))
	set("edw.bloom_build_ns_per_row", per(eb.self, eb.rowsIn))
	set("edw.load_ns_per_row", per(el.self, el.rowsIn))
	set("jen.scan_filter_ns_per_row", per(get("jen.scan_filter").self, get("jen.scan_filter").rowsIn))

	rp.shares(t)
}

// layerGroups maps replay span names to the layer groups of the CPU-share
// table; a span absent here (the root, the bus transports' wall time, the
// stages that are not on a query's path) has no share.
var layerGroups = []struct {
	group string
	spans []string
}{
	{"scan(format+compress+hdfs)", []string{"format.scan_hwc", "hdfs.readat"}},
	{"expr.filter", []string{"expr.filter"}},
	{"bloom", []string{"bloom.test"}},
	{"batch(scatter+codec)", []string{"cluster.partition", "batch.scatter", "batch.encode", "batch.decode"}},
	{"netsim", []string{"netsim.chan"}},
	{"join(relop+concat+eval+agg)", []string{"relop.build", "relop.probe", "batch.concat", "expr.eval", "relop.agg"}},
	{"edw", []string{"edw.scan", "edw.bloom_build"}},
}

// shares notes each layer group's share of the replayed pipeline's time.
// The count-only probe pass stands for the probe and is subtracted from the
// concat pass, which repeats it.
func (rp *replayer) shares(t map[string]*spanTotals) {
	var total time.Duration
	sums := make([]time.Duration, len(layerGroups))
	for i, g := range layerGroups {
		for _, name := range g.spans {
			s := t[name]
			if s == nil {
				continue
			}
			d := s.self
			if name == "batch.concat" && t["relop.probe"] != nil {
				d -= t["relop.probe"].dur
			}
			if name == "bloom.test" && !rp.sp.useBloom {
				d = 0 // measured, but not on this algorithm's path
			}
			if name == "edw.bloom_build" && !rp.sp.useBloom {
				d = 0
			}
			if d > 0 {
				sums[i] += d
			}
		}
		total += sums[i]
	}
	if total == 0 {
		return
	}
	side := "jen"
	if rp.sp.dbSide {
		side = "db"
	}
	rp.r.Notes["share.join_side"] = side
	for i, g := range layerGroups {
		rp.r.Notes["share."+g.group] = fmt.Sprintf("%.3f", float64(sums[i])/float64(total))
	}
}
