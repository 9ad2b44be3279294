package core

import (
	"context"
	"fmt"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// bucketCall is one emit of a table probe, recorded.
type bucketCall struct {
	probe  types.Row
	bucket []types.Row
}

// fullConcat is the join output without late materialisation: every pair
// concatenated into a combined batch of size rows, the post-join predicate
// filtering each full batch. It returns the survivors batch by batch.
func fullConcat(calls []bucketCall, post expr.Expr, size int, probeLeft bool) ([][]string, error) {
	var out [][]string
	var cur *batch.Batch
	flush := func() error {
		if cur == nil || cur.Size() == 0 {
			return nil
		}
		if err := expr.FilterBatch(post, cur); err != nil {
			return err
		}
		var rows []string
		_ = cur.Each(func(i int) error {
			rows = append(rows, cur.CloneRow(i).String())
			return nil
		})
		out = append(out, rows)
		cur = nil
		return nil
	}
	for _, c := range calls {
		for _, br := range c.bucket {
			if cur == nil {
				cur = batch.New(len(c.probe)+len(br), size)
			}
			if probeLeft {
				cur.AppendConcat(c.probe, br)
			} else {
				cur.AppendConcat(br, c.probe)
			}
			if cur.Full() {
				if err := flush(); err != nil {
					return out, err
				}
			}
		}
	}
	return out, flush()
}

// keptRows renders a combiner's kept batches like fullConcat's output.
func keptRows(kept []*batch.Batch) [][]string {
	var out [][]string
	for _, b := range kept {
		var rows []string
		_ = b.Each(func(i int) error {
			rows = append(rows, b.CloneRow(i).String())
			return nil
		})
		out = append(out, rows)
	}
	return out
}

// Build rows: (key int64, bdate date, bint int32). Key 0 has a bucket far
// longer than any batch size tested, key 1 a middling one, keys 2..40 one
// row each; every 7th bdate is NULL.
func combinerBuild() []types.Row {
	var rows []types.Row
	add := func(key int64, i int) {
		d := types.Date(int32(100 + i%5))
		if i%7 == 3 {
			d = types.Null
		}
		rows = append(rows, types.Row{types.Int64(key), d, types.Int32(int32(i % 9))})
	}
	for i := 0; i < 600; i++ {
		add(0, i)
	}
	for i := 0; i < 9; i++ {
		add(1, i)
	}
	for k := int64(2); k <= 40; k++ {
		add(k, int(k))
	}
	return rows
}

// Probe batches: (pint int32, key int64, pdate date), keys 0..49 (the
// top ones miss), every 5th pdate NULL.
func combinerProbes() []*batch.Batch {
	var bs []*batch.Batch
	for lo := 0; lo < 120; lo += 50 {
		b := batch.New(3, 50)
		for i := lo; i < lo+50 && i < 120; i++ {
			d := types.Date(int32(100 + i%4))
			if i%5 == 2 {
				d = types.Null
			}
			b.AppendRow(types.Row{types.Int32(int32(i % 11)), types.Int64(int64(i % 50)), d})
		}
		bs = append(bs, b)
	}
	return bs
}

// combinerPosts are post-join predicates over the combined layout, in both
// orientations: probe (pint, key, pdate) and build (key, bdate, bint), left
// part first.
func combinerPosts(t *testing.T, probeLeft bool) map[string]expr.Expr {
	reg := expr.NewRegistry()
	days, err := reg.Lookup("days")
	if err != nil {
		t.Fatal(err)
	}
	p, b := 0, 3 // column offsets of the probe and build parts
	if !probeLeft {
		p, b = 3, 0
	}
	pint := func() expr.Expr { return expr.NewCol(p, "pint", types.KindInt32) }
	pdate := func() expr.Expr { return expr.NewCol(p+2, "pdate", types.KindDate) }
	bdate := func() expr.Expr { return expr.NewCol(b+1, "bdate", types.KindDate) }
	bint := func() expr.Expr { return expr.NewCol(b+2, "bint", types.KindInt32) }
	call := func(arg expr.Expr) expr.Expr {
		c, err := expr.NewCall(days, arg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Two separately built copies of the operand, as the SQL front end
	// produces them.
	diff := func() expr.Expr { return expr.NewArith(expr.Sub, call(pdate()), call(bdate())) }
	lit := func(v int64) expr.Expr { return expr.NewLit(types.Int64(v)) }
	return map[string]expr.Expr{
		"nil":        nil,
		"probe-side": expr.NewCmp(expr.LT, pint(), expr.NewLit(types.Int32(6))),
		"build-side": expr.NewCmp(expr.GE, call(bdate()), lit(102)),
		"both-sides": expr.NewAnd(expr.NewCmp(expr.GE, diff(), lit(0)), expr.NewCmp(expr.LE, diff(), lit(1))),
		"or":         expr.NewOr(expr.NewCmp(expr.LT, bint(), expr.NewLit(types.Int32(2))), expr.NewCmp(expr.GT, pint(), expr.NewLit(types.Int32(8)))),
		"not":        expr.NewNot(expr.NewCmp(expr.EQ, bint(), pint())),
		"constant":   expr.NewCmp(expr.EQ, lit(1), lit(1)),
		"error":      expr.NewCmp(expr.GE, call(bint()), lit(0)), // days of an int
	}
}

// The late-materialising combiner emits exactly the batches the full-concat
// path would — the same survivors, in the same order, batch by batch — for
// every predicate shape, batch size, probe orientation and table regime,
// and a predicate that fails fails with the same error.
func TestCombinerMatchesFullConcat(t *testing.T) {
	build, probes := combinerBuild(), combinerProbes()
	tables := map[string]func(t *testing.T) *relop.HashTable{
		"mem": func(*testing.T) *relop.HashTable { return relop.NewHashTable(0, 4) },
		// A budget far below the build side spills every partition; a
		// 2-way fan-out with no recursion sends the rejoin to the block
		// nested-loop fallback, so every pair comes through Drain.
		"spill-nested-loop": func(t *testing.T) *relop.HashTable {
			s, err := relop.NewSpillingHashTable(0, 2048, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Configure(2, 0); err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for tname, mk := range tables {
		for _, probeLeft := range []bool{true, false} {
			for pname, post := range combinerPosts(t, probeLeft) {
				for _, size := range []int{1, 7, 512} {
					name := fmt.Sprintf("%s/probeLeft=%v/%s/size=%d", tname, probeLeft, pname, size)
					t.Run(name, func(t *testing.T) {
						jt := mk(t)
						defer jt.Close()
						for _, r := range build {
							if err := jt.Insert(r); err != nil {
								t.Fatal(err)
							}
						}
						if err := jt.FinishBuild(); err != nil {
							t.Fatal(err)
						}
						e := &Engine{cfg: Config{BatchRows: size}}
						var kept []*batch.Batch
						st := e.newJoinStage("", 0, joinSite{pred: post, leftWidth: 3, probeLeft: probeLeft, next: keepBatches(&kept)})
						c := st.cmb
						var calls []bucketCall
						tee := func(p types.Row, bucket []types.Row, lane []int64) error {
							calls = append(calls, bucketCall{p.Clone(), bucket})
							return c.bucket(p, bucket, lane)
						}
						var err error
						for _, pb := range probes {
							if err = jt.ProbeBuckets(pb, 1, nil, tee); err != nil {
								break
							}
							if err = c.settle(); err != nil {
								break
							}
						}
						if err == nil {
							if err = jt.Drain(tee); err == nil {
								err = c.flush()
							}
						}
						want, wantErr := fullConcat(calls, post, size, probeLeft)
						if pname == "error" {
							if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
								t.Fatalf("error = %v, full concat %v", err, wantErr)
							}
							return
						}
						if err != nil || wantErr != nil {
							t.Fatalf("error = %v, full concat %v", err, wantErr)
						}
						if len(calls) == 0 {
							t.Fatal("no bucket reached the combiner")
						}
						var total int64
						var nonEmpty [][]string
						for _, rows := range want {
							total += int64(len(rows))
							// A window of BatchRows pairs with no survivor
							// yields no batch at all.
							if len(rows) > 0 {
								nonEmpty = append(nonEmpty, rows)
							}
						}
						if c.output != total {
							t.Errorf("output = %d, full concat %d", c.output, total)
						}
						if got := keptRows(kept); fmt.Sprint(got) != fmt.Sprint(nonEmpty) {
							t.Errorf("kept batches differ\ngot:  %.300v\nwant: %.300v", got, nonEmpty)
						}
					})
				}
			}
		}
	}
}

// End to end, every join site folds exactly the pairs the post-join
// predicate keeps: results and JoinOutputTuples match a row-at-a-time
// evaluation of the predicate over the naive join, for the HDFS-side shuffle
// join (probe rows on the right) at 1 and 3 threads and under a spill
// budget that drives the join through Drain and the nested-loop fallback,
// for the broadcast join and the DB-side join (probe rows on the left).
func TestLateMaterialisedJoinMatchesReference(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 3, 4, 1500, 4000, format.HWCName)
	defer f.eng.Close()
	base := exampleQuery(t, f, 300, 400)
	reg := expr.NewRegistry()
	days, err := reg.Lookup("days")
	if err != nil {
		t.Fatal(err)
	}
	// Combined layout: L wire (joinKey, ldate, grp) ++ T wire (joinKey, tdate).
	dL, _ := expr.NewCall(days, expr.NewCol(1, "ldate", types.KindDate))
	dT, _ := expr.NewCall(days, expr.NewCol(4, "tdate", types.KindDate))
	posts := map[string]expr.Expr{
		"paper":  base.PostJoin,
		"nil":    nil,
		"l-only": expr.NewCmp(expr.LE, dL, expr.NewLit(types.Int64(16010))),
		"t-only": expr.NewCmp(expr.GT, dT, expr.NewLit(types.Int64(16020))),
		"or": expr.NewOr(
			expr.NewCmp(expr.LE, dL, expr.NewLit(types.Int64(16003))),
			expr.NewCmp(expr.GE, dT, expr.NewLit(types.Int64(16027)))),
		"constant": expr.NewCmp(expr.EQ, expr.NewLit(types.Int64(1)), expr.NewLit(types.Int64(1))),
	}
	for pname, post := range posts {
		q := *base
		q.PostJoin = post
		// The naive join, the predicate evaluated row at a time.
		want := map[int64][2]int64{}
		var pairs int64
		for _, lr := range f.lRows {
			if lr[1].Int() > 400 {
				continue
			}
			for _, tr := range f.tRows {
				if tr[2].Int() > 300 || tr[1].Int() != lr[0].Int() {
					continue
				}
				combined := types.Row{lr[0], lr[3], lr[4], tr[1], tr[4]}
				ok, err := expr.EvalPred(post, combined)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				pairs++
				var gid int64
				if _, err := fmt.Sscanf(lr[4].Str(), "grp-%d/page", &gid); err != nil {
					t.Fatal(err)
				}
				acc := want[gid]
				acc[0]++
				acc[1] += tr[4].Int() - lr[3].Int()
				want[gid] = acc
			}
		}
		for _, c := range []struct {
			name    string
			alg     Algorithm
			threads int
			budget  int64
		}{
			{"repartition", Repartition, 1, 0},
			{"repartition-3-threads", Repartition, 3, 0},
			{"repartition-spilled", Repartition, 1, 1},
			{"repartition-spilled-3-threads", Repartition, 3, 1},
			{"broadcast", Broadcast, 1, 0},
			{"broadcast-3-threads", Broadcast, 3, 0},
			{"db", DBSide, 1, 0},
		} {
			t.Run(pname+"/"+c.name, func(t *testing.T) {
				f.eng.cfg.WorkerThreads, f.eng.cfg.SpillDir = c.threads, t.TempDir()
				defer func() { f.eng.cfg.WorkerThreads, f.eng.cfg.SpillDir = 1, "" }()
				var opts RunOpts
				if c.budget > 0 {
					opts.Budget = mem.NewBudget(c.budget)
				}
				resetCounters(f.eng)
				res, err := f.eng.RunCtxOpts(context.Background(), &q, c.alg, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, res, want, c.alg)
				if got := res.Metrics[metrics.JoinOutputTuples]; got != pairs {
					t.Errorf("join output %d tuples, want %d", got, pairs)
				}
				if c.budget > 0 && res.Metrics[metrics.SpillNLFallbacks] == 0 {
					t.Error("the spilled run never reached the nested-loop fallback")
				}
			})
		}
	}
}
