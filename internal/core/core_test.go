package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hybridwh/internal/catalog"
	"hybridwh/internal/edw"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/relop"
	"hybridwh/internal/types"
)

// The test fixture mirrors the paper's scenario at miniature scale:
// T(uniqKey bigint, joinKey int, corPred int, indPred int, tdate date) in
// the database, L(joinKey int, corPred int, indPred int, ldate date,
// grp varchar) on HDFS.

type fixture struct {
	eng   *Engine
	dfs   *hdfs.Cluster
	tRows []types.Row
	lRows []types.Row
	tSch  types.Schema
	lSch  types.Schema
}

func tSchema() types.Schema {
	return types.NewSchema(
		types.C("uniqKey", types.KindInt64),
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("indPred", types.KindInt32),
		types.C("tdate", types.KindDate),
	)
}

func lSchema() types.Schema {
	return types.NewSchema(
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("indPred", types.KindInt32),
		types.C("ldate", types.KindDate),
		types.C("grp", types.KindString),
	)
}

func buildFixture(t testing.TB, bus netsim.Bus, dbWorkers, jenWorkers, tN, lN int, fmtName string) *fixture {
	t.Helper()
	rec := metrics.New()
	rng := rand.New(rand.NewSource(77))

	db, err := edw.New(dbWorkers, rec)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", tSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// corPred is correlated with joinKey on both tables, as in the paper's
	// dataset: predicates on corPred restrict the key range, so join-key
	// selectivity differs from 1 and both Bloom filters have work to do.
	// T' keys form a prefix [0, tCor/5]; L' keys form the rotated window
	// {k : (k+60) mod 300 <= lCor/3}.
	var tRows []types.Row
	for i := 0; i < tN; i++ {
		jk := rng.Intn(200)
		tRows = append(tRows, types.Row{
			types.Int64(int64(i)),
			types.Int32(int32(jk)),                  // joinKey 0..199
			types.Int32(int32(jk*5 + rng.Intn(5))),  // corPred, key-correlated
			types.Int32(int32(rng.Intn(1000))),      // indPred
			types.Date(int32(16000 + rng.Intn(30))), // tdate
		})
	}
	if err := tbl.Load(tRows); err != nil {
		t.Fatal(err)
	}
	tbl.BuildStats(64)
	if err := tbl.CreateIndex("cor_ind_key", []int{2, 3, 1}); err != nil {
		t.Fatal(err)
	}

	dfs := hdfs.New(hdfs.Config{DataNodes: jenWorkers, DisksPerNode: 2, BlockSize: 8192, Replication: 2, Seed: 5})
	cat := catalog.New()
	var lRows []types.Row
	gen := func(emit func(types.Row) error) error {
		for i := 0; i < lN; i++ {
			jk := rng.Intn(300)
			row := types.Row{
				types.Int32(int32(jk)),                            // joinKey 0..299 (partial overlap)
				types.Int32(int32(((jk+60)%300)*3 + rng.Intn(3))), // corPred, key-correlated
				types.Int32(int32(rng.Intn(1000))),                // indPred
				types.Date(int32(16000 + rng.Intn(30))),           // ldate
				types.String(fmt.Sprintf("grp-%05d/page", rng.Intn(12))),
			}
			lRows = append(lRows, row)
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := jen.CreateHDFSTable(dfs, cat, "L", "/hw/L", fmtName, lSchema(), 3, gen); err != nil {
		t.Fatal(err)
	}
	jc, err := jen.New(jen.Config{Workers: jenWorkers, Locality: true, BatchRows: 64}, dfs, cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	// WorkerThreads pinned to 1: the fixture's tests assert bit-identical
	// counter snapshots, which only the single-threaded pipeline guarantees
	// on every host. Parallel tests raise it explicitly (parallel_test.go).
	eng, err := New(db, jc, bus, rec, Config{BloomBits: 1 << 14, BloomHashes: 2, BatchRows: 64, WorkerThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, dfs: dfs, tRows: tRows, lRows: lRows, tSch: tSchema(), lSch: lSchema()}
}

// exampleQuery is the paper's query shape: local predicates both sides,
// equi-join, post-join date window, group-by with COUNT(*) and SUM.
func exampleQuery(t testing.TB, f *fixture, tCor, lCor int32) *plan.JoinQuery {
	t.Helper()
	reg := expr.NewRegistry()
	days, err := reg.Lookup("days")
	if err != nil {
		t.Fatal(err)
	}
	eg, err := reg.Lookup("extract_group")
	if err != nil {
		t.Fatal(err)
	}

	dbPred := expr.NewCmp(expr.LE, expr.NewCol(2, "corPred", types.KindInt32), expr.NewLit(types.Int32(tCor)))
	lPred := expr.NewCmp(expr.LE, expr.NewCol(1, "corPred", types.KindInt32), expr.NewLit(types.Int32(lCor)))

	// Combined layout: L wire (joinKey, ldate, grp) ++ T wire (joinKey, tdate).
	dLdate, _ := expr.NewCall(days, expr.NewCol(1, "ldate", types.KindDate))
	dTdate, _ := expr.NewCall(days, expr.NewCol(4, "tdate", types.KindDate))
	diff := expr.NewArith(expr.Sub, dTdate, dLdate)
	post := expr.NewAnd(
		expr.NewCmp(expr.GE, diff, expr.NewLit(types.Int64(0))),
		expr.NewCmp(expr.LE, diff, expr.NewLit(types.Int64(1))),
	)
	group, _ := expr.NewCall(eg, expr.NewCol(2, "grp", types.KindString))

	q, err := plan.NewBuilder("T", f.tSch, "L", f.lSch).
		DBPred(dbPred).
		HDFSPred(lPred).
		Join(1, 0).
		Ship([]int{1, 4}, []int{0, 3, 4}).
		PostJoin(post).
		GroupBy(group).
		Aggregates(
			relop.AggSpec{Kind: relop.AggCount, Name: "cnt"},
			relop.AggSpec{Kind: relop.AggSum, Input: diff, Name: "daysum"},
		).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// reference computes the query naively over the raw rows.
func reference(t testing.TB, f *fixture, tCor, lCor int32) map[int64][2]int64 {
	t.Helper()
	out := map[int64][2]int64{}
	byKey := map[int64][]types.Row{}
	for _, tr := range f.tRows {
		if tr[2].Int() <= int64(tCor) {
			byKey[tr[1].Int()] = append(byKey[tr[1].Int()], tr)
		}
	}
	for _, lr := range f.lRows {
		if lr[1].Int() > int64(lCor) {
			continue
		}
		for _, tr := range byKey[lr[0].Int()] {
			diff := tr[4].Int() - lr[3].Int()
			if diff < 0 || diff > 1 {
				continue
			}
			var gid int64
			if _, err := fmt.Sscanf(lr[4].Str(), "grp-%d/page", &gid); err != nil {
				t.Fatal(err)
			}
			acc := out[gid]
			acc[0]++
			acc[1] += diff
			out[gid] = acc
		}
	}
	return out
}

func checkResult(t *testing.T, res *Result, want map[int64][2]int64, alg Algorithm) {
	t.Helper()
	if len(res.Rows) != len(want) {
		t.Fatalf("%v: %d groups, want %d", alg, len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		gid := r[0].Int()
		w, ok := want[gid]
		if !ok {
			t.Fatalf("%v: unexpected group %d", alg, gid)
		}
		if r[1].Int() != w[0] || r[2].Int() != w[1] {
			t.Errorf("%v: group %d = (%d,%d), want (%d,%d)", alg, gid, r[1].Int(), r[2].Int(), w[0], w[1])
		}
	}
}

func TestAllAlgorithmsAgreeWithReference(t *testing.T) {
	for _, fmtName := range []string{format.HWCName, format.TextName} {
		t.Run(fmtName, func(t *testing.T) {
			f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 3000, 9000, fmtName)
			defer f.eng.Close()
			want := reference(t, f, 300, 400) // σT≈0.3, σL≈0.4
			if len(want) == 0 {
				t.Fatal("reference result empty; fixture too sparse")
			}
			q := exampleQuery(t, f, 300, 400)
			for _, alg := range Algorithms() {
				f.eng.Recorder().Reset()
				res, err := f.eng.Run(q, alg)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				checkResult(t, res, want, alg)
			}
		})
	}
}

func TestAlgorithmsAgreeOverTCP(t *testing.T) {
	f := buildFixture(t, netsim.NewTCPBus(256), 2, 3, 800, 2000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 500, 500)
	q := exampleQuery(t, f, 500, 500)
	for _, alg := range []Algorithm{DBSideBloom, Zigzag} {
		f.eng.Recorder().Reset()
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v over TCP: %v", alg, err)
		}
		checkResult(t, res, want, alg)
	}
}

// TestBloomFiltersReduceMovement is the Table 1 shape: the Bloom filter
// variants must move strictly fewer tuples.
func TestBloomFiltersReduceMovement(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 3000, 9000, format.HWCName)
	defer f.eng.Close()
	// T' keys ≈ [0,120], L' keys ≈ [0,73] ∪ [240,299]: BF_DB prunes the L'
	// keys above 120, BF_H prunes the T' keys above 73.
	q := exampleQuery(t, f, 600, 400)

	shuffle := map[Algorithm]int64{}
	dbSent := map[Algorithm]int64{}
	for _, alg := range []Algorithm{Repartition, RepartitionBloom, Zigzag} {
		f.eng.Recorder().Reset()
		if _, err := f.eng.Run(q, alg); err != nil {
			t.Fatal(err)
		}
		shuffle[alg] = f.eng.Recorder().Get(metrics.JENShuffleTuples)
		dbSent[alg] = f.eng.Recorder().Get(metrics.DBSentTuples)
	}
	if !(shuffle[RepartitionBloom] < shuffle[Repartition]) {
		t.Errorf("BF did not reduce shuffle: %d vs %d", shuffle[RepartitionBloom], shuffle[Repartition])
	}
	if !(shuffle[Zigzag] <= shuffle[RepartitionBloom]+shuffle[RepartitionBloom]/10) {
		t.Errorf("zigzag shuffle %d should match repartition(BF) %d", shuffle[Zigzag], shuffle[RepartitionBloom])
	}
	if !(dbSent[Zigzag] < dbSent[Repartition]) {
		t.Errorf("BF_H did not reduce DB transfer: %d vs %d", dbSent[Zigzag], dbSent[Repartition])
	}
	// DB-side join with/without BF: fewer tuples shipped into the DB.
	hdfsSent := map[Algorithm]int64{}
	for _, alg := range []Algorithm{DBSide, DBSideBloom} {
		f.eng.Recorder().Reset()
		if _, err := f.eng.Run(q, alg); err != nil {
			t.Fatal(err)
		}
		hdfsSent[alg] = f.eng.Recorder().Get(metrics.HDFSSentTuples)
	}
	if !(hdfsSent[DBSideBloom] < hdfsSent[DBSide]) {
		t.Errorf("BF did not reduce ingest: %d vs %d", hdfsSent[DBSideBloom], hdfsSent[DBSide])
	}
}

// TestDBSideStrategies forces each DB-side join strategy and checks results
// agree.
func TestDBSideStrategies(t *testing.T) {
	// The strategy is chosen from estimates (|T'| is ~900 rows in the first
	// fixture, ~1500 in the second); steer it with the cardinality hint.
	hints := []struct {
		want edw.JoinStrategy
		hint int64
	}{
		{edw.BroadcastDB, 0},       // the catalog's L rows, well above |T'|
		{edw.BroadcastIngested, 1}, // a tiny L' estimate
		{edw.RepartitionBoth, 1000},
	}
	run := func(t *testing.T, f *fixture, q *plan.JoinQuery, want map[int64][2]int64, alg Algorithm, strategy edw.JoinStrategy) {
		t.Helper()
		var res *Result
		err := finishWithin(t, 30*time.Second, func() (err error) {
			res, err = f.eng.Run(q, alg)
			return err
		})
		if err != nil {
			t.Fatalf("%v, %v: %v", alg, strategy, err)
		}
		if res.DBJoinStrategy != strategy {
			t.Fatalf("%v: the hint steered to %v, ran %v", alg, strategy, res.DBJoinStrategy)
		}
		checkResult(t, res, want, alg)
	}

	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 3000, 9000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	for _, h := range hints {
		q := *exampleQuery(t, f, 300, 400)
		q.HDFSCardHint = h.hint
		run(t, f, &q, want, DBSide, h.want)
	}

	// One row per message through 4-slot inboxes, more DB workers than JEN
	// workers, every DB-side algorithm under every strategy: under
	// broadcast-ingested and repartition-both every DB worker forwards the
	// ingested L' from inside its receive while its peers do the same, the
	// shape that hangs unless that receive relays (as
	// TestBroadcastRelayAgrees' relay case).
	g := buildFixture(t, netsim.NewChanBus(4), 4, 2, 1500, 4000, format.HWCName)
	defer g.eng.Close()
	g.eng.cfg.BatchRows = 1
	gWant := reference(t, g, 1000, 1000)
	for _, h := range hints {
		for _, alg := range []Algorithm{DBSide, DBSideBloom, ZigzagDBVariant} {
			q := *exampleQuery(t, g, 1000, 1000)
			q.HDFSCardHint = h.hint
			run(t, g, &q, gWant, alg, h.want)
		}
	}
}

func TestRunValidatesQuery(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(64), 2, 2, 100, 200, format.HWCName)
	defer f.eng.Close()
	bad := &plan.JoinQuery{}
	if _, err := f.eng.Run(bad, Zigzag); err == nil {
		t.Error("invalid query: want error")
	}
	q := exampleQuery(t, f, 300, 400)
	if _, err := f.eng.Run(q, Algorithm(42)); err == nil {
		t.Error("unknown algorithm: want error")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for _, a := range append(Algorithms(), Algorithm(42)) {
		if a.String() == "" {
			t.Errorf("Algorithm(%d).String() empty", a)
		}
	}
	if Zigzag.String() != "zigzag" || RepartitionBloom.String() != "repartition(BF)" {
		t.Error("algorithm names drifted from the paper's labels")
	}
}

func TestEngineRequiresComponents(t *testing.T) {
	if _, err := New(nil, nil, nil, nil, Config{}); err == nil {
		t.Error("nil components: want error")
	}
}

func TestEmptyResultSets(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(64), 2, 3, 500, 1500, format.HWCName)
	defer f.eng.Close()
	// Impossible predicate on T: no group survives anywhere.
	q := exampleQuery(t, f, -1, 400)
	for _, alg := range Algorithms() {
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%v: %d rows from an empty join", alg, len(res.Rows))
		}
	}
}

func TestSingleWorkerEachSide(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(64), 1, 1, 500, 1500, format.TextName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	for _, alg := range Algorithms() {
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkResult(t, res, want, alg)
	}
}

func TestMoreDBWorkersThanJENWorkers(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(64), 6, 3, 1000, 2000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	for _, alg := range []Algorithm{DBSideBloom, Zigzag, Broadcast} {
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkResult(t, res, want, alg)
	}
}
