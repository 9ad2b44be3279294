package hybridwh

import (
	"fmt"
	"strings"
	"testing"

	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
	"hybridwh/internal/format"
	"hybridwh/internal/types"
)

// smallData is a fast test dataset (~1/100000 of the paper's sizes but with
// enough rows per key for selectivity targets to hold approximately).
func smallData() datagen.Data {
	return datagen.Data{TRows: 20_000, LRows: 150_000, Keys: 800, Seed: 42, DateDays: 30, Groups: 40}
}

func openLoaded(t testing.TB, cfg Config) *Warehouse {
	t.Helper()
	if cfg.DBWorkers == 0 {
		cfg.DBWorkers = 4
	}
	if cfg.JENWorkers == 0 {
		cfg.JENWorkers = 4
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 64 << 10
	}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadPaperData(smallData()); err != nil {
		t.Fatal(err)
	}
	return w
}

func table1Workload(t testing.TB, w *Warehouse) datagen.Workload {
	t.Helper()
	wl, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Format: "bogus"}); err == nil {
		t.Error("bogus format: want error")
	}
	if _, err := Open(Config{Transport: "pigeon"}); err == nil {
		t.Error("bogus transport: want error")
	}
	w, err := Open(Config{DBWorkers: 2, JENWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Query("select count(*) from T, L where T.joinKey = L.joinKey"); err == nil {
		t.Error("query before load: want error")
	}
	if w.Config().Scale != 1000 || w.Config().Format != format.HWCName {
		t.Errorf("defaults: %+v", w.Config())
	}
}

func TestEndToEndSQLAllAlgorithmsAgree(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	sql := PaperQuerySQL(wl)

	var want []string
	for i, alg := range core.Algorithms() {
		res, err := w.Query(sql, WithAlgorithm(alg), WithCardHint(ExpectedLPrimeRows(wl)))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Errorf("ran %v, asked %v", res.Algorithm, alg)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%v: empty result", alg)
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r.String())
		}
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", alg, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("%v row %d: %s != %s", alg, j, got[j], want[j])
			}
		}
	}
}

// TestSkewShuffleEndToEnd drives the whole public path: Zipf-skewed L, the
// adaptive layer toggled via Config and escalating to the hybrid skew
// shuffle, identical rows either way, a better ShuffleBalance with it on,
// and the sampling estimator spotting the hot key the advisor would act on.
func TestSkewShuffleEndToEnd(t *testing.T) {
	data := smallData()
	data.ZipfS = 1.3 // hottest key holds roughly a third of L'
	// Re-costing escalates when the hot key's build (share·|L'|) outweighs
	// both an even shuffle and the T' transfer by the switch margin: eight
	// workers a side put the bar near a quarter of L', and doubling L keeps
	// the T' transfer from being the floor under every plan.
	data.LRows *= 2

	run := func(adaptive bool) *Result {
		w, err := Open(Config{
			DBWorkers: 8, JENWorkers: 8, BlockSize: 64 << 10,
			AdaptiveSwitch: adaptive,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.LoadPaperData(data); err != nil {
			t.Fatal(err)
		}
		// A wide SL' so the Zipf head survives the L predicate.
		wl, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.5, SL: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		if !adaptive {
			// While the plain warehouse is open, check the sampler sees the
			// skew that motivates the whole subsystem.
			jq, err := w.Plan(PaperQuerySQL(wl))
			if err != nil {
				t.Fatal(err)
			}
			share, err := w.EstimateHotKeyShare(jq, 0)
			if err != nil {
				t.Fatal(err)
			}
			if share < 0.1 {
				t.Errorf("EstimateHotKeyShare = %.3f; Zipf(1.3) head should dominate", share)
			}
		}
		res, err := w.Query(PaperQuerySQL(wl),
			WithAlgorithm(core.RepartitionBloom), WithCardHint(ExpectedLPrimeRows(wl)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatal("empty result")
		}
		return res
	}

	plain := run(false)
	skew := run(true)

	if len(plain.Rows) != len(skew.Rows) {
		t.Fatalf("row counts differ: %d plain vs %d skew", len(plain.Rows), len(skew.Rows))
	}
	for i := range plain.Rows {
		if plain.Rows[i].String() != skew.Rows[i].String() {
			t.Errorf("row %d: %s != %s", i, plain.Rows[i], skew.Rows[i])
		}
	}
	if skew.SwitchedTo != "hybrid-shuffle" {
		t.Errorf("SwitchedTo = %q (%s), want hybrid-shuffle", skew.SwitchedTo, skew.SwitchReason)
	}
	if plain.ShuffleBalance <= 1.2 {
		t.Errorf("plain ShuffleBalance = %.2f; Zipf fixture not skewed enough", plain.ShuffleBalance)
	}
	if skew.ShuffleBalance >= plain.ShuffleBalance {
		t.Errorf("ShuffleBalance did not improve: %.2f plain vs %.2f skew",
			plain.ShuffleBalance, skew.ShuffleBalance)
	}
}

func TestQueryProducesEstimateAndCounters(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	res, err := w.Query(PaperQuerySQL(wl), WithAlgorithm(core.Zigzag))
	if err != nil {
		t.Fatal(err)
	}
	if res.EstimatedTime.Total <= 0 {
		t.Error("no time estimate")
	}
	if res.Counters["jen.shuffle.tuples"] == 0 {
		t.Error("no shuffle counter")
	}
	if res.Counters["db.sent.tuples"] == 0 {
		t.Error("no db-sent counter")
	}
}

func TestAdvisorPicksZigzagForCommonCase(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	res, err := w.Query(PaperQuerySQL(wl), WithSigmaL(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != core.Zigzag {
		t.Errorf("advisor chose %v: %s", res.Algorithm, res.Advice)
	}
	if res.Advice == "" {
		t.Error("no advice rationale")
	}
}

func TestAdvisorPicksDBSideForSelectiveL(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	res, err := w.Query(PaperQuerySQL(wl), WithSigmaL(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != core.DBSideBloom {
		t.Errorf("advisor chose %v: %s", res.Algorithm, res.Advice)
	}
}

func TestExplain(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	out, err := w.Explain(PaperQuerySQL(wl), WithSigmaL(0.4))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T (database)", "L (HDFS", "zigzag", "corPred", "access:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if _, err := w.Explain("not sql at all"); err == nil {
		t.Error("bad sql: want error")
	}
}

func TestTextFormatEndToEnd(t *testing.T) {
	w := openLoaded(t, Config{Format: format.TextName})
	defer w.Close()
	wl := table1Workload(t, w)
	res, err := w.Query(PaperQuerySQL(wl), WithAlgorithm(core.RepartitionBloom))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty result on text format")
	}
}

func TestKeepCountersAccumulates(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	sql := PaperQuerySQL(wl)
	r1, err := w.Query(sql, WithAlgorithm(core.Repartition))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := w.Query(sql, WithAlgorithm(core.Repartition), KeepCounters())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counters["jen.shuffle.tuples"] != 2*r1.Counters["jen.shuffle.tuples"] {
		t.Errorf("KeepCounters did not accumulate: %d vs %d",
			r2.Counters["jen.shuffle.tuples"], r1.Counters["jen.shuffle.tuples"])
	}
}

func TestPaperQuerySQLRoundTrips(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w)
	jq, err := w.Plan(PaperQuerySQL(wl))
	if err != nil {
		t.Fatal(err)
	}
	if jq.DBTable != "T" || jq.HDFSTable != "L" {
		t.Errorf("plan tables: %s, %s", jq.DBTable, jq.HDFSTable)
	}
	if len(jq.Aggs) != 1 || len(jq.GroupBy) != 1 {
		t.Errorf("plan shape: %d aggs, %d groups", len(jq.Aggs), len(jq.GroupBy))
	}
}

func TestEstimateSigmaL(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w) // σL = 0.4
	jq, err := w.Plan(PaperQuerySQL(wl))
	if err != nil {
		t.Fatal(err)
	}
	est, err := w.EstimateSigmaL(jq, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0.28 || est > 0.52 {
		t.Errorf("sampled σL = %.3f, want ≈0.4", est)
	}
	// No predicate → selectivity 1.
	jq2, err := w.Plan("select count(*) from T, L where T.joinKey = L.joinKey")
	if err != nil {
		t.Fatal(err)
	}
	est, err = w.EstimateSigmaL(jq2, 500)
	if err != nil || est != 1 {
		t.Errorf("no-predicate σL = %.3f, %v", est, err)
	}
}

func TestAdvisorSamplesWithoutHint(t *testing.T) {
	w := openLoaded(t, Config{})
	defer w.Close()
	wl := table1Workload(t, w) // σL = 0.4: the advisor must not pick DB-side
	res, err := w.Query(PaperQuerySQL(wl))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != core.Zigzag {
		t.Errorf("advisor with sampling picked %v: %s", res.Algorithm, res.Advice)
	}
}

func TestLoadTablesCustomSchemas(t *testing.T) {
	w, err := Open(Config{DBWorkers: 3, JENWorkers: 3, Scale: 100000, BlockSize: 64 << 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	orders := types.NewSchema(
		types.C("oid", types.KindInt64),
		types.C("uid", types.KindInt32),
		types.C("amount", types.KindInt32),
	)
	views := types.NewSchema(
		types.C("uid", types.KindInt32),
		types.C("page", types.KindString),
	)
	var orderRows, viewRows []types.Row
	for i := 0; i < 2000; i++ {
		orderRows = append(orderRows, types.Row{
			types.Int64(int64(i)), types.Int32(int32(i % 100)), types.Int32(int32(i % 50)),
		})
	}
	for i := 0; i < 6000; i++ {
		viewRows = append(viewRows, types.Row{
			types.Int32(int32(i % 150)), types.String(fmt.Sprintf("p%d", i%3)),
		})
	}
	err = w.LoadTables(
		TableDef{Name: "orders", Schema: orders, Indexes: [][]int{{2}}},
		SliceSource(orderRows),
		TableDef{Name: "views", Schema: views},
		SliceSource(viewRows),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Double-loading is rejected.
	if err := w.LoadTables(TableDef{Name: "x", Schema: orders}, SliceSource(nil),
		TableDef{Name: "y", Schema: views}, SliceSource(nil)); err == nil {
		t.Error("second load: want error")
	}

	res, err := w.Query(`
		select views.page, count(*), sum(orders.amount)
		from orders, views
		where orders.uid = views.uid and orders.amount >= 10
		group by views.page`, WithAlgorithm(core.Zigzag))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3 pages", len(res.Rows))
	}
	// Reference: uids 0..99 each have 20 orders, 16 with amount>=10
	// (amounts i%50 cycle: per uid the amounts are fixed); views: uid
	// 0..99 appear 40 times each across 3 pages... verify via independent
	// computation instead.
	want := map[string]int64{}
	byUID := map[int64]int{}
	for _, o := range orderRows {
		if o[2].Int() >= 10 {
			byUID[o[1].Int()]++
		}
	}
	for _, v := range viewRows {
		want[v[1].Str()] += int64(byUID[v[0].Int()])
	}
	for _, r := range res.Rows {
		if r[1].Int() != want[r[0].Str()] {
			t.Errorf("page %s: count %d, want %d", r[0].Str(), r[1].Int(), want[r[0].Str()])
		}
	}
}
