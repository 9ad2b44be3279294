package relop

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/types"
)

func TestHashTableBuildProbe(t *testing.T) {
	h := NewHashTable(0, 4)
	rows := []types.Row{
		{types.Int32(1), types.String("a")},
		{types.Int32(2), types.String("b")},
		{types.Int32(1), types.String("c")},
	}
	for _, r := range rows {
		if err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
	if got := h.Probe(1); len(got) != 2 {
		t.Errorf("Probe(1) = %v", got)
	}
	if got := h.Probe(9); got != nil {
		t.Errorf("Probe(9) = %v", got)
	}
	if err := h.Insert(types.Row{}); err == nil {
		t.Error("key out of range: want error")
	}
}

func TestHashTableJoin(t *testing.T) {
	// Build side: (joinKey, name). Probe side: (uid, joinKey).
	m := NewHashTable(0, 4)
	for _, r := range []types.Row{
		{types.Int32(1), types.String("a")},
		{types.Int32(1), types.String("b")},
		{types.Int32(2), types.String("c")},
	} {
		if err := m.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	probes := rowBatch(
		types.Row{types.Int64(100), types.Int32(1)},
		types.Row{types.Int64(101), types.Int32(9)}, // no bucket: no call
		types.Row{types.Int64(102), types.Int32(2)},
	)
	var got []string
	err := m.ProbeBuckets(probes, 1, nil, func(p types.Row, bucket []types.Row, _ []int64) error {
		for _, b := range bucket {
			got = append(got, fmt.Sprintf("%d:%s", p[0].Int(), b[1].Str()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One call per probe row with a bucket, in row order; bucket rows in
	// insertion order.
	if want := "[100:a 100:b 102:c]"; fmt.Sprint(got) != want {
		t.Errorf("pairs = %v, want %s", got, want)
	}
	// The shim's ProbeBatch is the same probe, one (build, probe) pair at a
	// time.
	var pairs []string
	if err := (&MemJoinTable{H: m}).ProbeBatch(probes, 1, func(b, p types.Row) error {
		pairs = append(pairs, fmt.Sprintf("%d:%s", p[0].Int(), b[1].Str()))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(pairs) != fmt.Sprint(got) {
		t.Errorf("ProbeBatch pairs = %v, ProbeBuckets %v", pairs, got)
	}
	// Probe key out of range.
	if err := m.ProbeBuckets(probes, 3, nil, nil); err == nil {
		t.Error("probe key out of range: want error")
	}
}

// After Build, a bucket's rows are adjacent in one backing array — the
// sealed table reads a bucket front to back as one sequential run — and
// keep their insertion order, whether they came in by Insert, by
// InsertBatch, or by both.
func TestBuildGroupsBucketsContiguously(t *testing.T) {
	h := NewHashTable(0, 4)
	b := batch.New(3, 64)
	for i := 0; i < 64; i++ {
		b.AppendRow(types.Row{types.Int64(int64(i % 5)), types.Int32(int32(i)), types.String("x")})
	}
	if err := h.InsertBatch(b); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 80; i++ {
		if err := h.Insert(types.Row{types.Int64(int64(i % 5)), types.Int32(int32(i)), types.String("y")}); err != nil {
			t.Fatal(err)
		}
	}
	h.Build()
	for k := int64(0); k < 5; k++ {
		bucket := h.Probe(k)
		if len(bucket) != 16 {
			t.Fatalf("key %d: %d rows, want 16", k, len(bucket))
		}
		for i := 1; i < len(bucket); i++ {
			prev, cur := bucket[i-1], bucket[i]
			next := unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*int(unsafe.Sizeof(prev[0])))
			if unsafe.Pointer(&cur[0]) != next {
				t.Fatalf("key %d: rows %d and %d are not adjacent in one array", k, i-1, i)
			}
			if prev[1].Int() >= cur[1].Int() {
				t.Fatalf("key %d: row %d (%d) after row %d (%d): not insertion order", k, i, cur[1].Int(), i-1, prev[1].Int())
			}
		}
	}
}

func aggFixture() ([]expr.Expr, []AggSpec) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{
		{Kind: AggCount, Name: "cnt"},
		{Kind: AggSum, Input: expr.NewCol(1, "v", types.KindInt64), Name: "sum"},
		{Kind: AggMin, Input: expr.NewCol(1, "v", types.KindInt64), Name: "min"},
		{Kind: AggMax, Input: expr.NewCol(1, "v", types.KindInt64), Name: "max"},
		{Kind: AggAvg, Input: expr.NewCol(1, "v", types.KindInt64), Name: "avg"},
	}
	return groupBy, aggs
}

func addAll(t *testing.T, h *HashAgg, rows []types.Row) {
	t.Helper()
	for _, r := range rows {
		if err := h.Add(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHashAggSingleNode(t *testing.T) {
	groupBy, aggs := aggFixture()
	h := NewHashAgg(groupBy, aggs)
	addAll(t, h, []types.Row{
		{types.Int32(1), types.Int64(10)},
		{types.Int32(1), types.Int64(20)},
		{types.Int32(2), types.Int64(5)},
	})
	rows := h.FinalRows()
	if len(rows) != 2 || h.NumGroups() != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	g1 := rows[0]
	if g1[0].Int() != 1 || g1[1].Int() != 2 || g1[2].Int() != 30 || g1[3].Int() != 10 || g1[4].Int() != 20 {
		t.Errorf("group 1 = %v", g1)
	}
	if math.Abs(g1[5].Float()-15) > 1e-9 {
		t.Errorf("avg = %v", g1[5].Float())
	}
}

// TestPartialFinalEquivalence is the distributed-aggregation contract: any
// partitioning of the input across workers, merged at a designated worker,
// must equal single-node aggregation.
func TestPartialFinalEquivalence(t *testing.T) {
	groupBy, aggs := aggFixture()
	var all []types.Row
	for i := 0; i < 300; i++ {
		all = append(all, types.Row{types.Int32(int32(i % 7)), types.Int64(int64(i*13%101 - 50))})
	}
	single := NewHashAgg(groupBy, aggs)
	addAll(t, single, all)
	want := single.FinalRows()

	for _, nworkers := range []int{1, 2, 5, 30} {
		parts := make([]*HashAgg, nworkers)
		for w := range parts {
			parts[w] = NewHashAgg(groupBy, aggs)
		}
		for i, r := range all {
			if err := parts[i%nworkers].Add(r); err != nil {
				t.Fatal(err)
			}
		}
		final := NewHashAgg(groupBy, aggs)
		for _, p := range parts {
			for _, pr := range p.PartialRows() {
				if err := final.MergePartial(pr); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := final.FinalRows()
		if len(got) != len(want) {
			t.Fatalf("nworkers=%d: %d groups, want %d", nworkers, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				a, b := got[i][c], want[i][c]
				if a.K == types.KindFloat64 {
					if math.Abs(a.Float()-b.Float()) > 1e-9 {
						t.Errorf("nworkers=%d row %d col %d: %v != %v", nworkers, i, c, a.Float(), b.Float())
					}
				} else if !types.Equal(a, b) {
					t.Errorf("nworkers=%d row %d col %d: %v != %v", nworkers, i, c, a, b)
				}
			}
		}
	}
}

func TestHashAggNullHandling(t *testing.T) {
	groupBy := []expr.Expr{expr.NewCol(0, "g", types.KindInt32)}
	aggs := []AggSpec{
		{Kind: AggCount, Input: expr.NewCol(1, "v", types.KindInt64), Name: "cnt_v"},
		{Kind: AggSum, Input: expr.NewCol(1, "v", types.KindInt64), Name: "sum"},
		{Kind: AggMin, Input: expr.NewCol(1, "v", types.KindInt64), Name: "min"},
		{Kind: AggAvg, Input: expr.NewCol(1, "v", types.KindInt64), Name: "avg"},
	}
	h := NewHashAgg(groupBy, aggs)
	addAll(t, h, []types.Row{
		{types.Int32(1), types.Null},
		{types.Int32(1), types.Int64(10)},
	})
	rows := h.FinalRows()
	// COUNT(v) skips nulls; SUM ignores them; MIN ignores them; AVG divides
	// by non-null count.
	if rows[0][1].Int() != 1 || rows[0][2].Int() != 10 || rows[0][3].Int() != 10 || rows[0][4].Float() != 10 {
		t.Errorf("null handling: %v", rows[0])
	}
	// All-null group yields null AVG and MIN.
	h2 := NewHashAgg(groupBy, aggs)
	addAll(t, h2, []types.Row{{types.Int32(2), types.Null}})
	r2 := h2.FinalRows()[0]
	if !r2[3].IsNull() || !r2[4].IsNull() {
		t.Errorf("all-null group: %v", r2)
	}
}

func TestMergePartialValidation(t *testing.T) {
	groupBy, aggs := aggFixture()
	h := NewHashAgg(groupBy, aggs)
	if err := h.MergePartial(types.Row{types.Int32(1)}); err == nil {
		t.Error("short partial row: want error")
	}
}

func TestHashAggErrors(t *testing.T) {
	// Erroring group-by expression propagates.
	h := NewHashAgg([]expr.Expr{expr.NewCol(5, "missing", types.KindInt32)}, nil)
	if err := h.Add(types.Row{types.Int32(1)}); err == nil {
		t.Error("bad group-by: want error")
	}
	// Erroring aggregate input propagates.
	h2 := NewHashAgg(
		[]expr.Expr{expr.NewCol(0, "g", types.KindInt32)},
		[]AggSpec{{Kind: AggSum, Input: expr.NewCol(5, "missing", types.KindInt64)}},
	)
	if err := h2.Add(types.Row{types.Int32(1)}); err == nil {
		t.Error("bad agg input: want error")
	}
}

func TestAggKindString(t *testing.T) {
	for _, k := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg, AggKind(9)} {
		if k.String() == "" {
			t.Errorf("AggKind(%d).String() empty", k)
		}
	}
}

func TestFinalRowsDeterministic(t *testing.T) {
	groupBy, aggs := aggFixture()
	h := NewHashAgg(groupBy, aggs)
	for i := 99; i >= 0; i-- {
		if err := h.Add(types.Row{types.Int32(int32(i)), types.Int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	a := h.FinalRows()
	b := h.FinalRows()
	for i := range a {
		if !types.Equal(a[i][0], b[i][0]) {
			t.Fatal("FinalRows not deterministic")
		}
	}
}
