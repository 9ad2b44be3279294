package core

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// countingDays is the days() built-in with every evaluated value counted,
// in both its row and its batch form.
func countingDays(t *testing.T, calls *atomic.Int64) *expr.Func {
	t.Helper()
	days, err := expr.NewRegistry().Lookup("days")
	if err != nil {
		t.Fatal(err)
	}
	return &expr.Func{
		Name: days.Name, Arity: days.Arity, Result: days.Result,
		Apply: func(a []types.Value) (types.Value, error) {
			calls.Add(1)
			return days.Apply(a)
		},
		Batch: func(args [][]types.Value, out []types.Value) ([]types.Value, error) {
			calls.Add(int64(len(args[0])))
			return days.Batch(args, out)
		},
	}
}

// withCountingBand returns q with its post-join predicate rebuilt as the
// paper's date band over countingDays: 0 <= days(tdate) - days(ldate) <= 1
// on the fixture's combined layout (L wire joinKey, ldate, grp ++ T wire
// joinKey, tdate).
func withCountingBand(t *testing.T, q *plan.JoinQuery, days *expr.Func) *plan.JoinQuery {
	t.Helper()
	diff := func() expr.Expr {
		dT, err := expr.NewCall(days, expr.NewCol(4, "tdate", types.KindDate))
		if err != nil {
			t.Fatal(err)
		}
		dL, err := expr.NewCall(days, expr.NewCol(1, "ldate", types.KindDate))
		if err != nil {
			t.Fatal(err)
		}
		return expr.NewArith(expr.Sub, dT, dL)
	}
	out := *q
	out.PostJoin = expr.NewAnd(
		expr.NewCmp(expr.GE, diff(), expr.NewLit(types.Int64(0))),
		expr.NewCmp(expr.LE, diff(), expr.NewLit(types.Int64(1))))
	return &out
}

// naivePairs counts the fixture's join pairs before the post-join
// predicate.
func naivePairs(f *fixture, tCor, lCor int32) int64 {
	tPerKey := map[int64]int64{}
	for _, tr := range f.tRows {
		if tr[2].Int() <= int64(tCor) {
			tPerKey[tr[1].Int()]++
		}
	}
	var pairs int64
	for _, lr := range f.lRows {
		if lr[1].Int() <= int64(lCor) {
			pairs += tPerKey[lr[0].Int()]
		}
	}
	return pairs
}

// countingDayNumbers is countingDays for a schema without dates: days() of
// an int64 day number is the number itself.
func countingDayNumbers(calls *atomic.Int64) *expr.Func {
	return &expr.Func{
		Name: "days", Arity: 1, Result: types.KindInt64,
		Apply: func(a []types.Value) (types.Value, error) {
			calls.Add(1)
			return a[0], nil
		},
		Batch: func(args [][]types.Value, out []types.Value) ([]types.Value, error) {
			calls.Add(int64(len(args[0])))
			return append(out, args[0]...), nil
		},
	}
}

// The paper's date band is evaluated once per build row (the lane) plus at
// most once per probe row with a bucket — not once per pair — at every join
// site: the repartition join (build = L) at one and three threads, the
// skew-escalated hybrid shuffle, the DB-side joins, the broadcast join at
// one and three threads, the adaptive switch's local broadcast (build = T)
// and the last stage of an N-way star plan (build = the last dimension).
// The per-pair predicate would run days twice per pair, at least half as
// many times again as the bound allows, so a silent fallback to the
// per-pair predicate fails here even though every result stays right.
func TestBandPathEvaluatesTermsPerRowNotPerPair(t *testing.T) {
	const tCor, lCor = 300, 400
	var calls atomic.Int64
	days := countingDays(t, &calls)
	plain := buildFixture(t, netsim.NewChanBus(256), 3, 4, 1500, 4000, format.HWCName)
	defer plain.eng.Close()
	skewed := buildSkewFixtureKeys(t, netsim.NewChanBus(256), 2, 3, 600, 9000, adaptTestConfig(true), hotKeys90)
	defer skewed.eng.Close()
	switched := buildSkewFixtureKeys(t, netsim.NewChanBus(256), 2, 3, 600, 20000, adaptTestConfig(true), alignedKeys)
	defer switched.eng.Close()
	for _, c := range []struct {
		name       string
		f          *fixture
		alg        Algorithm
		threads    int
		switchedTo string
	}{
		{"repartition", plain, Repartition, 1, ""},
		{"repartition-3-threads", plain, Repartition, 3, ""},
		{"repartition-hybrid-shuffle", skewed, Repartition, 1, "hybrid-shuffle"},
		{"db", plain, DBSide, 1, ""},
		{"db-bf", plain, DBSideBloom, 1, ""},
		{"broadcast", plain, Broadcast, 1, ""},
		{"broadcast-3-threads", plain, Broadcast, 3, ""},
		{"adaptive-local-broadcast", switched, Repartition, 1, "broadcast"},
	} {
		t.Run(c.name, func(t *testing.T) {
			threads := c.f.eng.cfg.WorkerThreads
			c.f.eng.cfg.WorkerThreads = c.threads
			defer func() { c.f.eng.cfg.WorkerThreads = threads }()
			resetCounters(c.f.eng)
			calls.Store(0)
			q := withCountingBand(t, exampleQuery(t, c.f, tCor, lCor), days)
			res, err := c.f.eng.Run(q, c.alg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, reference(t, c.f, tCor, lCor), c.alg)
			if res.SwitchedTo != c.switchedTo {
				t.Fatalf("switched to %q (%s), want %q", res.SwitchedTo, res.SwitchReason, c.switchedTo)
			}
			build, probe := res.Metrics[metrics.JoinBuildTuples], res.Metrics[metrics.JoinProbeTuples]
			pairs := naivePairs(c.f, tCor, lCor)
			// The per-pair predicate runs days twice per pair; keep that
			// well above the bound, or a fallback could pass unseen.
			if 4*pairs < 3*(build+probe) {
				t.Fatalf("fixture too sparse to tell: %d pairs for %d build + %d probe rows", pairs, build, probe)
			}
			n := calls.Load()
			t.Logf("days ran %d times: %d build rows, %d probe rows, %d pairs", n, build, probe, pairs)
			if n < build || n > build+probe {
				t.Errorf("days ran %d times for %d build rows, %d probe rows and %d pairs; want between %d and %d",
					n, build, probe, pairs, build, build+probe)
			}
		})
	}
	// The star's band crosses its last edge, customer, where every fact row
	// meets exactly one dimension row: that stage probes FactRows rows into
	// as many pairs, and builds the customer table once per worker under a
	// broadcast.
	t.Run("n-way-last-edge", func(t *testing.T) {
		const jenWorkers = 4
		star := smallStar()
		sf := buildStarFixture(t, netsim.NewChanBus(256), 3, jenWorkers, star, Config{})
		defer sf.eng.Close()
		sf.env.Registry.Register(countingDayNumbers(&calls))
		sql := starBandSQL("days")
		mq := sf.multiPlan(t, sql)
		last := mq.Edges[len(mq.Edges)-1]
		if last.Dim.Table != "customer" || star.Dims[0].Name != "customer" {
			t.Fatalf("the last edge joins %s, not customer", last.Dim.Table)
		}
		want := sf.multiReference(t, sql)
		calls.Store(0)
		res, err := sf.eng.RunMulti(mq)
		if err != nil {
			t.Fatal(err)
		}
		assertRowsEqual(t, res.Rows, want)
		build, probe := star.Dims[0].Rows, star.FactRows
		if last.Algorithm == plan.EdgeBroadcast {
			build *= jenWorkers
		}
		n := calls.Load()
		t.Logf("days ran %d times: %d build rows, %d probe rows and pairs", n, build, probe)
		if 4*probe < 3*(build+probe) {
			t.Fatalf("fixture too sparse to tell: %d pairs for %d build + %d probe rows", probe, build, probe)
		}
		if n < build || n > build+probe {
			t.Errorf("days ran %d times for %d build rows, %d probe rows and pairs; want between %d and %d",
				n, build, probe, build, build+probe)
		}
	})
}

// bandData is one data set for the combiner's band tests. Build rows are
// (key int64, bdate, bnum int64), probe rows (pnum int64, key int64, pdate).
type bandData struct {
	build  []types.Row
	probes []*batch.Batch
}

// The values the extreme data set plants: the band limit, one past it, and
// the int64 extremes, where today's arithmetic wraps.
var bandExtremes = []int64{expr.BandLimit, -expr.BandLimit, expr.BandLimit + 1, -expr.BandLimit - 1, math.MaxInt64, math.MinInt64}

// newBandData builds the base data set, then lets edit plant values. Key 0
// has a bucket of 600 rows, longer than every batch size tested; key 1 one
// of 9; keys 2..40 one row each. Every 7th bdate and bnum is NULL on the
// build side, every 5th pdate and pnum on the probe side; the probes cover
// keys 0..49, so keys above 49 are never probed.
func newBandData(editBuild func(i int, r types.Row), editProbe func(i int, r types.Row)) bandData {
	var d bandData
	add := func(key int64, i int) {
		r := types.Row{types.Int64(key), types.Date(int32(100 + i%5)), types.Int64(int64(i % 11))}
		if i%7 == 3 {
			r[1], r[2] = types.Null, types.Null
		}
		d.build = append(d.build, r)
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
	for k := int64(100); k < 104; k++ {
		add(k, int(k))
	}
	if editBuild != nil {
		for i, r := range d.build {
			editBuild(i, r)
		}
	}
	n := 0
	for lo := 0; lo < 120; lo += 50 {
		b := batch.New(3, 50)
		for i := lo; i < lo+50 && i < 120; i++ {
			r := types.Row{types.Int64(int64(i % 13)), types.Int64(int64(i % 50)), types.Date(int32(100 + i%4))}
			if i%5 == 2 {
				r[0], r[2] = types.Null, types.Null
			}
			if editProbe != nil {
				editProbe(n, r)
			}
			n++
			b.AppendRow(r)
		}
		d.probes = append(d.probes, b)
	}
	return d
}

// bandDataSets are the data sets every band test runs over. The bad ones
// plant a value days() rejects (an int32 where a date belongs) or a key no
// probe reaches.
func bandDataSets() map[string]bandData {
	return map[string]bandData{
		"clean": newBandData(nil, nil),
		"extreme": newBandData(func(i int, r types.Row) {
			if r[0].I == 1 || r[0].I == 5 {
				r[2] = types.Int64(bandExtremes[i%len(bandExtremes)])
			}
		}, func(i int, r types.Row) {
			if i%9 == 4 {
				r[0] = types.Int64(bandExtremes[i%len(bandExtremes)])
			}
		}),
		"bad-build-unprobed": newBandData(func(_ int, r types.Row) {
			if r[0].I == 101 {
				r[1] = types.Int32(7)
			}
		}, nil),
		"bad-build-probed": newBandData(func(i int, r types.Row) {
			if r[0].I == 1 && i%3 == 1 {
				r[1] = types.Int32(7)
			}
		}, nil),
		"bad-probe-unprobed": newBandData(nil, func(i int, r types.Row) {
			if i == 30 {
				r[1], r[2] = types.Int64(77), types.Int32(7)
			}
		}),
		"bad-probe-probed": newBandData(nil, func(i int, r types.Row) {
			if i == 61 {
				r[2] = types.Int32(7)
			}
		}),
	}
}

// bandPosts are band predicates over the combined layout in both
// orientations (probe part first when probeLeft), plus one whose literal
// lies past BandLimit and so runs the general path.
func bandPosts(t *testing.T, probeLeft bool) map[string]expr.Expr {
	days, err := expr.NewRegistry().Lookup("days")
	if err != nil {
		t.Fatal(err)
	}
	p, b := 0, 3
	if !probeLeft {
		p, b = 3, 0
	}
	call := func(arg expr.Expr) expr.Expr {
		c, err := expr.NewCall(days, arg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pdays := func() expr.Expr { return call(expr.NewCol(p+2, "pdate", types.KindDate)) }
	bdays := func() expr.Expr { return call(expr.NewCol(b+1, "bdate", types.KindDate)) }
	pnum := func() expr.Expr { return expr.NewCol(p, "pnum", types.KindInt64) }
	bnum := func() expr.Expr { return expr.NewCol(b+2, "bnum", types.KindInt64) }
	lit := func(v int64) expr.Expr { return expr.NewLit(types.Int64(v)) }
	band := func(x, y func() expr.Expr, lo, hi int64) expr.Expr {
		return expr.NewAnd(
			expr.NewCmp(expr.GE, expr.NewArith(expr.Sub, x(), y()), lit(lo)),
			expr.NewCmp(expr.LE, expr.NewArith(expr.Sub, x(), y()), lit(hi)))
	}
	return map[string]expr.Expr{
		"days":        band(pdays, bdays, 0, 1),
		"days-build":  band(bdays, pdays, -1, 0),
		"int":         band(pnum, bnum, -3, 5),
		"int-limit":   band(bnum, pnum, -expr.BandLimit, expr.BandLimit),
		"int-general": band(pnum, bnum, -expr.BandLimit-1, 4),
	}
}

// bandTables are the join tables the band tests probe, each given the lane
// function of the post-join predicate it serves: a multi-partition
// in-memory table, and a spilling one whose pairs come from resident
// partitions, Drain's hash rejoins and the block nested-loop fallback.
var bandTables = map[string]func(t *testing.T, lane relop.LaneFunc) *relop.HashTable{
	"mem": func(_ *testing.T, lane relop.LaneFunc) *relop.HashTable {
		return relop.NewHashTable(0, 4).WithLane(lane)
	},
	"spill": func(t *testing.T, lane relop.LaneFunc) *relop.HashTable {
		s, err := relop.NewSpillingHashTable(0, 6<<10, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Configure(8, 1); err != nil {
			t.Fatal(err)
		}
		return s.WithLane(lane)
	},
}

// The band path emits exactly the batches the full-concat path would — the
// same survivors, in the same order, batch by batch, and the same output
// count — in both orientations, at batch sizes below and above the bucket
// lengths, over NULLs on either side, over values at and past BandLimit
// (which fall back and match today's wrapped arithmetic), and through the
// in-memory and the spilling tables. A value days() rejects fails with the
// same error when its pair is reached and goes unnoticed, as before, when
// it is not. Every lane a bucket arrives with is aligned with its rows.
func TestCombinerBandMatchesFullConcat(t *testing.T) {
	for dname, data := range bandDataSets() {
		for tname := range bandTables {
			for _, probeLeft := range []bool{true, false} {
				for pname, post := range bandPosts(t, probeLeft) {
					for _, size := range []int{1, 7, 512} {
						name := fmt.Sprintf("%s/%s/probeLeft=%v/%s/size=%d", dname, tname, probeLeft, pname, size)
						t.Run(name, func(t *testing.T) {
							runBandCase(t, data, tname, post, probeLeft, size, dname, pname)
						})
					}
				}
			}
		}
	}
}

func runBandCase(t *testing.T, data bandData, tname string, post expr.Expr, probeLeft bool, size int, dname, pname string) {
	e := &Engine{cfg: Config{BatchRows: size}}
	var kept []*batch.Batch
	st := e.newJoinStage("", 0, joinSite{pred: post, leftWidth: 3, probeLeft: probeLeft, next: keepBatches(&kept)})
	if (st.band == nil) != (pname == "int-general") {
		t.Fatalf("SplitBand found band %v for %s", st.band, post)
	}
	jt := bandTables[tname](t, st.lane())
	defer jt.Close()
	for _, r := range data.build {
		if err := jt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jt.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	c := st.cmb
	var calls []bucketCall
	laned := 0
	tee := func(p types.Row, bucket []types.Row, lane []int64) error {
		calls = append(calls, bucketCall{p.Clone(), bucket})
		if lane != nil {
			laned++
			term := st.band.Right
			if !probeLeft {
				term = st.band.Left
			}
			if len(lane) != len(bucket) {
				t.Fatalf("lane of %d values for a bucket of %d rows", len(lane), len(bucket))
			}
			for k, br := range bucket {
				v, err := term.Eval(br)
				if err != nil {
					t.Fatalf("a laned bucket's row %v fails its term: %v", br, err)
				}
				if x, ok := expr.BandValue(v); !ok || x != lane[k] {
					t.Fatalf("lane[%d] = %d, row %v has %v", k, lane[k], br, v)
				}
			}
		}
		return c.bucket(p, bucket, lane)
	}
	var err error
	for _, pb := range data.probes {
		if err = jt.ProbeBuckets(pb, 1, nil, tee); err != nil {
			break
		}
		if err = c.settle(); err != nil {
			break
		}
	}
	probed := len(calls)
	if err == nil {
		if err = jt.Drain(tee); err == nil {
			err = c.flush()
		}
	}
	if s := jt; tname == "spill" && err == nil {
		// Key 0's partition is evicted, and at rejoin its hot key outgrows
		// the budget even after a repartition pass, so it goes to the
		// nested loop while the keys split off with it rejoin by hash.
		rejoined := 0
		for _, c := range calls[probed:] {
			if c.probe[1].I != 0 {
				rejoined++
			}
		}
		if probed == 0 || rejoined == 0 || s.Evictions == 0 || s.Repartitions == 0 || s.NLFallbacks == 0 {
			t.Fatalf("resident buckets %d, rejoined %d, evictions %d, repartitions %d, nested loops %d: a regime is missing",
				probed, rejoined, s.Evictions, s.Repartitions, s.NLFallbacks)
		}
	}
	want, wantErr := fullConcat(calls, post, size, probeLeft)
	if (dname == "bad-build-probed" || dname == "bad-probe-probed") && strings.HasPrefix(pname, "days") {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("error = %v, full concat %v", err, wantErr)
		}
		return
	}
	if err != nil || wantErr != nil {
		t.Fatalf("error = %v, full concat %v", err, wantErr)
	}
	if st.band != nil && dname == "clean" && laned == 0 {
		t.Error("no bucket arrived with a lane")
	}
	var total int64
	var nonEmpty [][]string
	for _, rows := range want {
		total += int64(len(rows))
		if len(rows) > 0 {
			nonEmpty = append(nonEmpty, rows)
		}
	}
	if total == 0 {
		t.Fatal("no pair survives; the case shows nothing")
	}
	if c.output != total {
		t.Errorf("output = %d, full concat %d", c.output, total)
	}
	if got := keptRows(kept); fmt.Sprint(got) != fmt.Sprint(nonEmpty) {
		t.Errorf("kept batches differ\ngot:  %.300v\nwant: %.300v", got, nonEmpty)
	}
}

// A large table builds its partitions on several goroutines at once, each
// calling the lane function; every lane still holds its rows' build-side
// term. (`make race` runs this under the race detector.)
func TestBandLaneUnderParallelBuild(t *testing.T) {
	post := bandPosts(t, false)["days"] // build rows are the left part
	st := (&Engine{}).newJoinStage("", 0, joinSite{pred: post, leftWidth: 3})
	h := relop.NewHashTable(0, 4).WithLane(st.lane())
	const rows, keys = 1 << 15, 64
	for i := 0; i < rows; i++ {
		r := types.Row{types.Int64(int64(i % keys)), types.Date(int32(i % 1000)), types.Int64(0)}
		if i%9 == 4 {
			r[1] = types.Null
		}
		if err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	h.Build()
	for k := int64(0); k < keys; k++ {
		bucket, lane := h.ProbeLane(k)
		if len(bucket) != rows/keys || len(lane) != len(bucket) {
			t.Fatalf("key %d: %d rows, lane of %d", k, len(bucket), len(lane))
		}
		for i, r := range bucket {
			want := int64(expr.BandNull)
			if !r[1].IsNull() {
				want = r[1].I
			}
			if lane[i] != want {
				t.Fatalf("key %d row %d: lane %d, want %d", k, i, lane[i], want)
			}
		}
	}
}
