package edw

import (
	"fmt"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/expr"
	"hybridwh/internal/metrics"
	"hybridwh/internal/types"
)

// Test table T mirrors the paper's transaction table shape:
// (uniqKey bigint, joinKey int, corPred int, indPred int)
func tSchema() types.Schema {
	return types.NewSchema(
		types.C("uniqKey", types.KindInt64),
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("indPred", types.KindInt32),
	)
}

func loadT(t *testing.T, workers, rows int) (*DB, *Table) {
	t.Helper()
	db, err := New(workers, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", tSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, types.Row{
			types.Int64(int64(i)),
			types.Int32(int32(i % 100)),  // joinKey: 100 distinct
			types.Int32(int32(i % 1000)), // corPred: uniform 0..999
			types.Int32(int32(i * 7 % 1000)),
		})
	}
	if err := tbl.Load(batch); err != nil {
		t.Fatal(err)
	}
	tbl.BuildStats(64)
	return db, tbl
}

func TestCreateTableValidation(t *testing.T) {
	db, err := New(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("bad", types.Schema{}, 0); err == nil {
		t.Error("empty schema: want error")
	}
	if _, err := db.CreateTable("bad", tSchema(), 9); err == nil {
		t.Error("dist col out of range: want error")
	}
	if _, err := db.CreateTable("T", tSchema(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", tSchema(), 0); err == nil {
		t.Error("duplicate table: want error")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("unknown table: want error")
	}
	if _, err := New(0, nil); err == nil {
		t.Error("zero workers: want error")
	}
}

func TestLoadDistributesByHash(t *testing.T) {
	db, tbl := loadT(t, 8, 8000)
	if tbl.Rows() != 8000 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
	var total int64
	for w := 0; w < db.Workers(); w++ {
		n := tbl.PartitionRows(w)
		total += n
		if n < 700 || n > 1300 {
			t.Errorf("worker %d has %d rows; want ~1000", w, n)
		}
	}
	if total != 8000 {
		t.Errorf("partitions sum to %d", total)
	}
	// Same distribution key always lands on the same worker.
	if tbl.PartitionRows(99) != 0 {
		t.Error("out-of-range partition should be empty")
	}
	// Arity check on load.
	if err := tbl.Load([]types.Row{{types.Int64(1)}}); err == nil {
		t.Error("short row: want error")
	}
}

func TestHistogramEstimates(t *testing.T) {
	_, tbl := loadT(t, 4, 10000)
	h := tbl.Histogram(2) // corPred uniform over 0..999
	if h == nil {
		t.Fatal("no histogram for corPred")
	}
	if h.Total() != 10000 || h.Min() != 0 || h.Max() != 999 {
		t.Errorf("histogram meta: total=%d min=%d max=%d", h.Total(), h.Min(), h.Max())
	}
	cases := []struct {
		lo, hi int64
		want   float64
	}{
		{0, 99, 0.1},
		{0, 999, 1.0},
		{500, 749, 0.25},
		{-100, -1, 0},
		{2000, 3000, 0},
	}
	for _, c := range cases {
		got := h.EstimateRange(c.lo, c.hi)
		if got < c.want-0.03 || got > c.want+0.03 {
			t.Errorf("EstimateRange(%d,%d) = %.3f, want ≈%.2f", c.lo, c.hi, got, c.want)
		}
	}
	if tbl.Histogram(99) != nil {
		t.Error("histogram for unknown column should be nil")
	}
}

func TestCreateIndexValidation(t *testing.T) {
	_, tbl := loadT(t, 2, 100)
	if err := tbl.CreateIndex("ix", []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("ix", []int{2}); err == nil {
		t.Error("duplicate index: want error")
	}
	if err := tbl.CreateIndex("bad", []int{9}); err == nil {
		t.Error("column out of range: want error")
	}
	if len(tbl.Indexes()) != 1 {
		t.Errorf("Indexes = %v", tbl.Indexes())
	}
}

func corPredLE(v int32) expr.Expr {
	return expr.NewCmp(expr.LE, expr.NewCol(2, "corPred", types.KindInt32), expr.NewLit(types.Int32(v)))
}

func TestFilterProjectTableScan(t *testing.T) {
	db, tbl := loadT(t, 4, 10000)
	pred := corPredLE(99) // 10% selectivity
	plan := db.PlanAccess(tbl, pred, []int{1})
	if plan.Path != PathTableScan {
		t.Fatalf("no index: path = %v", plan.Path)
	}
	var total int
	for w := 0; w < db.Workers(); w++ {
		rows, err := db.FilterProject(tbl, w, plan, []int{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if len(r) != 2 {
				t.Fatalf("projection width %d", len(r))
			}
		}
		total += len(rows)
	}
	if total != 1000 {
		t.Errorf("filtered rows = %d, want 1000", total)
	}
	if db.Recorder().Get(metrics.DBScanRows) != 10000 {
		t.Errorf("scan rows = %d", db.Recorder().Get(metrics.DBScanRows))
	}
}

func TestPlanAccessPrefersIndexOnlyThenRange(t *testing.T) {
	db, tbl := loadT(t, 4, 10000)
	if err := tbl.CreateIndex("cor_ind", []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("cor_ind_key", []int{2, 3, 1}); err != nil {
		t.Fatal(err)
	}
	pred := corPredLE(99)
	// Needing (pred cols + joinKey): covered by cor_ind_key → index-only.
	plan := db.PlanAccess(tbl, pred, []int{2, 3, 1})
	if plan.Path != PathIndexOnly || plan.Index != "cor_ind_key" {
		t.Errorf("plan = %+v, want index-only cor_ind_key", plan)
	}
	if plan.Lo > 0 || plan.Hi != 99 {
		t.Errorf("leading range = [%d,%d]", plan.Lo, plan.Hi)
	}
	// Needing uniqKey (not in any index) with a selective pred → index range.
	plan = db.PlanAccess(tbl, pred, []int{0})
	if plan.Path != PathIndexRange {
		t.Errorf("plan = %+v, want index-range", plan)
	}
	// Unselective predicate → table scan.
	plan = db.PlanAccess(tbl, corPredLE(900), []int{0})
	if plan.Path != PathTableScan {
		t.Errorf("plan = %+v, want table-scan for 90%% selectivity", plan)
	}
	// Nil predicate → table scan.
	if p := db.PlanAccess(tbl, nil, nil); p.Path != PathTableScan || p.EstSelectivity != 1 {
		t.Errorf("nil pred plan = %+v", p)
	}
}

func TestIndexAndScanAgree(t *testing.T) {
	db, tbl := loadT(t, 4, 5000)
	if err := tbl.CreateIndex("cor", []int{2}); err != nil {
		t.Fatal(err)
	}
	pred := expr.NewAnd(corPredLE(150),
		expr.NewCmp(expr.GE, expr.NewCol(3, "indPred", types.KindInt32), expr.NewLit(types.Int32(500))))
	scanPlan := AccessPlan{Path: PathTableScan, Pred: pred}
	idxPlan := db.PlanAccess(tbl, pred, []int{0})
	if idxPlan.Path != PathIndexRange {
		t.Fatalf("expected index range, got %v", idxPlan.Path)
	}
	for w := 0; w < db.Workers(); w++ {
		a, err := db.FilterProject(tbl, w, scanPlan, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.FilterProject(tbl, w, idxPlan, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("worker %d: scan %d rows, index %d rows", w, len(a), len(b))
		}
		seen := map[int64]bool{}
		for _, r := range a {
			seen[r[0].Int()] = true
		}
		for _, r := range b {
			if !seen[r[0].Int()] {
				t.Fatalf("worker %d: index row %d not in scan result", w, r[0].Int())
			}
		}
	}
	// Index touched far fewer rows than a scan would.
	idxRows := db.Recorder().Get(metrics.DBIndexRows)
	if idxRows == 0 || idxRows > 5000*20/100 {
		t.Errorf("index touched %d rows; want ≈15%%", idxRows)
	}
}

func TestBuildBloomIndexOnly(t *testing.T) {
	db, tbl := loadT(t, 4, 10000)
	if err := tbl.CreateIndex("cor_ind_key", []int{2, 3, 1}); err != nil {
		t.Fatal(err)
	}
	pred := corPredLE(99)
	bf, err := db.BuildBloom(tbl, pred, 1, 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Keys passing the predicate (joinKey = i%100 for i%1000 <= 99 ⇒ i%100
	// anything... every joinKey 0..99 appears) must test positive.
	for k := int64(0); k < 100; k++ {
		if !bf.TestHash(types.BloomHashKey(k)) {
			t.Errorf("joinKey %d missing from BF_DB", k)
		}
	}
	// Index-only: no base scan rows recorded.
	if db.Recorder().Get(metrics.DBScanRows) != 0 {
		t.Errorf("BuildBloom touched base rows: %d", db.Recorder().Get(metrics.DBScanRows))
	}
	if db.Recorder().Get(metrics.DBIndexRows) == 0 {
		t.Error("BuildBloom recorded no index rows")
	}
}

func TestApplyBloom(t *testing.T) {
	db, _ := loadT(t, 2, 10)
	bf := bloom.New(1<<12, 2)
	bf.AddHash(types.BloomHashKey(1))
	bf.AddHash(types.BloomHashKey(3))
	bs := []*batch.Batch{batch.New(1, 2), batch.New(1, 2)}
	for i, k := range []int32{1, 2, 3, 4} {
		bs[i/2].AppendRow(types.Row{types.Int32(k)})
	}
	dropped := db.ApplyBloomBatches(bs, 0, bf)
	var kept []types.Row
	for _, b := range bs {
		kept = append(kept, b.Rows()...)
	}
	if len(kept)+int(dropped) != 4 {
		t.Fatalf("kept %d dropped %d", len(kept), dropped)
	}
	for _, r := range kept {
		k := r[0].Int()
		if k != 1 && k != 3 && !bf.TestHash(types.BloomHashKey(k)) {
			t.Errorf("kept non-member %d", k)
		}
	}
	if dropped < 1 {
		t.Error("expected at least one drop")
	}
	if got := db.Recorder().Get(metrics.DBBloomFiltered); got != dropped {
		t.Errorf("%s = %d, want %d", metrics.DBBloomFiltered, got, dropped)
	}
	// No batches still records the (zero) drop, as the zigzag counters expect.
	db.Recorder().Reset()
	db.ApplyBloomBatches(nil, 0, bf)
	if _, ok := db.Recorder().Snapshot()[metrics.DBBloomFiltered]; !ok {
		t.Errorf("%s not recorded for an empty T'", metrics.DBBloomFiltered)
	}
}

func TestChooseJoinStrategy(t *testing.T) {
	cases := []struct {
		db, hdfs int64
		m        int
		want     JoinStrategy
	}{
		{100, 1_000_000, 30, BroadcastDB},       // tiny T': broadcast it
		{1_000_000, 100, 30, BroadcastIngested}, // tiny L': broadcast it
		{1_000_000, 1_000_000, 30, RepartitionBoth},
		{5, 5, 1, BroadcastDB}, // single worker: trivial
	}
	for _, c := range cases {
		if got := ChooseJoinStrategy(c.db, c.hdfs, c.m); got != c.want {
			t.Errorf("ChooseJoinStrategy(%d, %d, %d) = %v, want %v", c.db, c.hdfs, c.m, got, c.want)
		}
	}
	for _, s := range []JoinStrategy{RepartitionBoth, BroadcastDB, BroadcastIngested, JoinStrategy(9)} {
		if s.String() == "" {
			t.Error("JoinStrategy.String empty")
		}
	}
	for _, p := range []AccessPath{PathTableScan, PathIndexRange, PathIndexOnly, AccessPath(9)} {
		if p.String() == "" {
			t.Error("AccessPath.String empty")
		}
	}
}

func TestChooseZigzagReaccess(t *testing.T) {
	if !ChooseZigzagReaccess(100, 10000) {
		t.Error("small T' should materialize")
	}
	if ChooseZigzagReaccess(9000, 10000) {
		t.Error("huge T' should re-access via index")
	}
	if !ChooseZigzagReaccess(0, 0) {
		t.Error("empty table should materialize")
	}
}

func TestFilterProjectMissingIndexErrors(t *testing.T) {
	db, tbl := loadT(t, 2, 100)
	plan := AccessPlan{Path: PathIndexRange, Index: "nope", Lo: 0, Hi: 10}
	if _, err := db.FilterProject(tbl, 0, plan, []int{0}); err == nil {
		t.Error("missing index: want error")
	}
	if _, err := db.FilterProject(tbl, 0, AccessPlan{Path: AccessPath(9)}, []int{0}); err == nil {
		t.Error("unknown path: want error")
	}
}

func TestParallelWorkerAccessIsRaceFree(t *testing.T) {
	db, tbl := loadT(t, 8, 8000)
	if err := tbl.CreateIndex("cor", []int{2}); err != nil {
		t.Fatal(err)
	}
	pred := corPredLE(99)
	plan := db.PlanAccess(tbl, pred, []int{1})
	errc := make(chan error, db.Workers())
	for w := 0; w < db.Workers(); w++ {
		go func(w int) {
			_, err := db.FilterProject(tbl, w, plan, []int{1})
			errc <- err
		}(w)
	}
	for w := 0; w < db.Workers(); w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyTableOperations(t *testing.T) {
	db, err := New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("E", tSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl.BuildStats(16)
	if err := tbl.CreateIndex("ix", []int{2}); err != nil {
		t.Fatal(err)
	}
	bf, err := db.BuildBloom(tbl, corPredLE(10), 1, 1<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bf.FillRatio() != 0 {
		t.Error("BF over empty table should be empty")
	}
	rows, err := db.FilterProject(tbl, 0, db.PlanAccess(tbl, corPredLE(10), nil), []int{0})
	if err != nil || len(rows) != 0 {
		t.Errorf("empty filter: %v, %v", rows, err)
	}
}

func BenchmarkFilterProjectScan(b *testing.B) {
	db, err := New(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	tbl, _ := db.CreateTable("T", tSchema(), 0)
	rows := make([]types.Row, 100000)
	for i := range rows {
		rows[i] = types.Row{types.Int64(int64(i)), types.Int32(int32(i % 100)), types.Int32(int32(i % 1000)), types.Int32(int32(i % 7))}
	}
	if err := tbl.Load(rows); err != nil {
		b.Fatal(err)
	}
	tbl.BuildStats(64)
	plan := db.PlanAccess(tbl, corPredLE(99), []int{1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.FilterProject(tbl, 0, plan, []int{1}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt import if assertions change
