package expr

import (
	"math"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

func batchOf(rows []types.Row) *batch.Batch {
	b := batch.New(len(rows[0]), len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

func filterRows() []types.Row {
	return []types.Row{
		{types.Int32(1), types.Int32(10), types.String("a")},
		{types.Int32(2), types.Int32(5), types.String("b")},
		{types.Int32(3), types.Int32(3), types.String("a")},
		{types.Null, types.Int32(9), types.String("c")},
		{types.Int32(5), types.Null, types.String("")},
	}
}

// checkAgainstEval compares FilterBatch's survivor set with per-row
// EvalPred over the same rows: the vectorized path must agree with the
// scalar path exactly, including NULL handling.
func checkAgainstEval(t *testing.T, pred Expr, rows []types.Row) {
	t.Helper()
	b := batchOf(rows)
	if err := FilterBatch(pred, b); err != nil {
		t.Fatalf("FilterBatch(%v): %v", pred, err)
	}
	var want []int
	for i, r := range rows {
		ok, err := EvalPred(pred, r)
		if err != nil {
			t.Fatalf("EvalPred(%v): %v", pred, err)
		}
		if ok {
			want = append(want, i)
		}
	}
	var got []int
	_ = b.Each(func(i int) error { got = append(got, i); return nil })
	if len(got) != len(want) {
		t.Fatalf("pred %v: got rows %v want %v", pred, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pred %v: got rows %v want %v", pred, got, want)
		}
	}
}

func TestFilterBatchMatchesEval(t *testing.T) {
	rows := filterRows()
	c0 := NewCol(0, "a", types.KindInt32)
	c1 := NewCol(1, "b", types.KindInt32)
	c2 := NewCol(2, "s", types.KindString)
	preds := []Expr{
		nil,
		NewCmp(LT, c0, NewLit(types.Int32(3))), // col < lit kernel
		NewCmp(GE, NewLit(types.Int32(5)), c1), // lit >= col kernel (flipped)
		NewCmp(EQ, c2, NewLit(types.String("a"))), // string equality
		NewCmp(NE, c0, c1),                        // col vs col kernel
		NewAnd(NewCmp(GT, c0, NewLit(types.Int32(1))), NewCmp(LT, c1, NewLit(types.Int32(9)))),
		NewOr(NewCmp(EQ, c0, NewLit(types.Int32(1))), NewCmp(EQ, c2, NewLit(types.String("c")))), // fallback
		NewNot(NewCmp(LE, c0, NewLit(types.Int32(2)))),                                           // fallback
		NewCmp(GT, NewArith(Add, c0, c1), NewLit(types.Int64(8))),                                // fallback
		NewCmp(EQ, NewLit(types.Int32(1)), NewLit(types.Int32(1))),                               // lit vs lit fallback
	}
	for _, p := range preds {
		checkAgainstEval(t, p, rows)
	}
}

func TestFilterBatchNarrowsExistingSelection(t *testing.T) {
	rows := filterRows()
	b := batchOf(rows)
	b.SetSel([]int32{1, 2, 3})
	pred := NewCmp(GT, NewCol(1, "b", types.KindInt32), NewLit(types.Int32(4)))
	if err := FilterBatch(pred, b); err != nil {
		t.Fatal(err)
	}
	var got []int
	_ = b.Each(func(i int) error { got = append(got, i); return nil })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestFilterBatchColumnOutOfRange(t *testing.T) {
	b := batchOf(filterRows())
	if err := FilterBatch(NewCmp(EQ, NewCol(9, "x", types.KindInt32), NewLit(types.Int32(1))), b); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFilterBatchFallbackError(t *testing.T) {
	b := batchOf(filterRows())
	// Division by zero inside the fallback path must surface as an error.
	pred := NewCmp(GT, NewArith(Div, NewCol(0, "a", types.KindInt32), NewLit(types.Int32(0))), NewLit(types.Int32(1)))
	if err := FilterBatch(pred, b); err == nil {
		t.Fatal("expected division error")
	}
}

func TestEvalBatchInto(t *testing.T) {
	rows := filterRows()
	b := batchOf(rows)
	b.SetSel([]int32{0, 2, 4})
	exprs := []Expr{
		NewCol(2, "s", types.KindString),
		NewLit(types.Int64(7)),
		NewArith(Mul, NewCol(0, "a", types.KindInt32), NewLit(types.Int32(2))), // fallback
	}
	for _, e := range exprs {
		got, err := EvalBatchInto(e, b, nil)
		if err != nil {
			t.Fatalf("EvalBatchInto(%v): %v", e, err)
		}
		var want []types.Value
		for _, i := range []int{0, 2, 4} {
			v, err := e.Eval(rows[i])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: got %d values want %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v row %d: got %v want %v", e, i, got[i], want[i])
			}
		}
	}
}

func TestEvalBatchIntoError(t *testing.T) {
	b := batchOf(filterRows())
	if _, err := EvalBatchInto(NewCol(7, "x", types.KindInt32), b, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := EvalBatchInto(NewArith(Div, NewLit(types.Int32(1)), NewLit(types.Int32(0))), b, nil); err == nil {
		t.Fatal("expected division error")
	}
}

// countingFunc is a scalar function that counts the rows it is applied to.
func countingFunc(name string, calls *int) *Func {
	return &Func{
		Name: name, Arity: 1, Result: types.KindInt64,
		Apply: func(a []types.Value) (types.Value, error) {
			*calls++
			if a[0].IsNull() {
				return types.Null, nil
			}
			return types.Int64(a[0].I), nil
		},
	}
}

// A range over two separately built copies of one operand — what the SQL
// front end produces for lo <= f(x) AND f(x) <= hi — evaluates the operand
// once per row, and keeps exactly the rows term-by-term evaluation keeps.
func TestFilterBatchFusesStructurallySharedOperand(t *testing.T) {
	var calls int
	f := countingFunc("f", &calls)
	operand := func() Expr {
		c, err := NewCall(f, NewCol(0, "a", types.KindInt32))
		if err != nil {
			t.Fatal(err)
		}
		return NewArith(Sub, c, NewLit(types.Int64(1)))
	}
	rng := NewAnd(
		NewCmp(GE, operand(), NewLit(types.Int64(1))),
		NewCmp(LE, operand(), NewLit(types.Int64(2))),
	)
	rows := filterRows()
	b := batchOf(rows)
	if err := FilterBatch(rng, b); err != nil {
		t.Fatal(err)
	}
	if calls != len(rows) {
		t.Errorf("operand evaluated for %d rows, want %d (once per row)", calls, len(rows))
	}
	checkAgainstEval(t, rng, rows)

	// Unfused, the second term re-evaluates the operand for the first
	// term's survivors.
	calls = 0
	b = batchOf(rows)
	for _, term := range rng.(*Logic).Terms {
		if err := FilterBatch(term, b); err != nil {
			t.Fatal(err)
		}
	}
	if calls <= len(rows) {
		t.Errorf("term-by-term: %d evaluations, want more than %d", calls, len(rows))
	}
}

// Operands that differ anywhere — column, kind, literal or function — are
// different operands, and an AND over them is not fused.
func TestSameExprIsStructural(t *testing.T) {
	var calls int
	f, g := countingFunc("f", &calls), countingFunc("g", &calls)
	call := func(fn *Func, arg Expr) Expr {
		c, err := NewCall(fn, arg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	col := func(i int, k types.Kind) Expr { return NewCol(i, "c", k) }
	base := func() Expr {
		return NewArith(Sub, call(f, col(0, types.KindDate)), NewLit(types.Int64(1)))
	}
	if !sameExpr(base(), base()) {
		t.Fatal("two copies of one operand are not equal")
	}
	for name, other := range map[string]Expr{
		"column":   NewArith(Sub, call(f, col(1, types.KindDate)), NewLit(types.Int64(1))),
		"kind":     NewArith(Sub, call(f, col(0, types.KindInt32)), NewLit(types.Int64(1))),
		"literal":  NewArith(Sub, call(f, col(0, types.KindDate)), NewLit(types.Int64(2))),
		"function": NewArith(Sub, call(g, col(0, types.KindDate)), NewLit(types.Int64(1))),
		"operator": NewArith(Add, call(f, col(0, types.KindDate)), NewLit(types.Int64(1))),
	} {
		if sameExpr(base(), other) {
			t.Errorf("%s differs but sameExpr reports equal", name)
		}
	}

	// Not fused: each term evaluates its own operand.
	rows := filterRows()
	pred := NewAnd(
		NewCmp(GE, call(f, col(0, types.KindInt32)), NewLit(types.Int64(1))),
		NewCmp(LE, call(f, col(1, types.KindInt32)), NewLit(types.Int64(9))),
	)
	calls = 0
	if err := FilterBatch(pred, batchOf(rows)); err != nil {
		t.Fatal(err)
	}
	if calls <= len(rows) {
		t.Errorf("different operands fused: %d evaluations for %d rows", calls, len(rows))
	}
	checkAgainstEval(t, pred, rows)
}

// The folded interval test agrees with cmpTruth over every term, extremes
// included, and NE or a non-int64 literal is left to the general loop.
func TestInt64IntervalMatchesCmpTruth(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	ops := []CmpOp{EQ, GE, LE, GT, LT}
	for _, op1 := range ops {
		for _, op2 := range ops {
			for _, x1 := range edges {
				for _, x2 := range edges {
					lits := []types.Value{types.Int64(x1), types.Int64(x2)}
					lo, hi, ok := int64Interval([]CmpOp{op1, op2}, lits)
					if !ok {
						t.Fatalf("%v %d, %v %d: not folded", op1, x1, op2, x2)
					}
					for _, v := range edges {
						want := cmpTruth(op1, types.Int64(v), lits[0]) && cmpTruth(op2, types.Int64(v), lits[1])
						if got := lo <= v && v <= hi; got != want {
							t.Fatalf("v=%d %v %d AND %v %d: interval [%d,%d] says %v, want %v", v, op1, x1, op2, x2, lo, hi, got, want)
						}
					}
				}
			}
		}
	}
	if _, _, ok := int64Interval([]CmpOp{NE}, []types.Value{types.Int64(1)}); ok {
		t.Error("NE folded into an interval")
	}
	if _, _, ok := int64Interval([]CmpOp{GE}, []types.Value{types.Int32(1)}); ok {
		t.Error("int32 literal folded into an int64 interval")
	}
}
