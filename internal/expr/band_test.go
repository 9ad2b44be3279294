package expr

import (
	"math"
	"testing"

	"hybridwh/internal/types"
)

// bandTestCols builds terms over a combined layout of two three-column parts:
// left (ldate date, lnum int64, lf float64) ++ right (rdate date, rnum int64,
// rs string).
func bandTestCols() (ldays, lnum, lf, rdays, rnum, rs, rdate func() Expr) {
	days := builtinDays()
	call := func(c *Col) Expr {
		e, err := NewCall(days, c)
		if err != nil {
			panic(err)
		}
		return e
	}
	ldays = func() Expr { return call(NewCol(0, "ldate", types.KindDate)) }
	lnum = func() Expr { return NewCol(1, "lnum", types.KindInt64) }
	lf = func() Expr { return NewCol(2, "lf", types.KindFloat64) }
	rdays = func() Expr { return call(NewCol(3, "rdate", types.KindDate)) }
	rnum = func() Expr { return NewCol(4, "rnum", types.KindInt64) }
	rs = func() Expr { return NewCol(5, "rs", types.KindString) }
	rdate = func() Expr { return NewCol(3, "rdate", types.KindDate) }
	return
}

func builtinDays() *Func {
	f, err := NewRegistry().Lookup("days")
	if err != nil {
		panic(err)
	}
	return f
}

func i64(v int64) Expr { return NewLit(types.Int64(v)) }

// sub builds x - y afresh, as the SQL front end builds each term's operand.
func sub(x, y func() Expr) func() Expr {
	return func() Expr { return NewArith(Sub, x(), y()) }
}

// SplitBand accepts the shared-operand range AND in both operand orders,
// both conjunct orders and as EQ or strict-bound pairs, normalised to
// left - right, with each term remapped onto its own part's row.
func TestSplitBandAccepts(t *testing.T) {
	ldays, lnum, _, rdays, rnum, _, _ := bandTestCols()
	for _, c := range []struct {
		name   string
		pred   Expr
		lo, hi int64
	}{
		// The paper's form: right - left in [0, 1] is left - right in [-1, 0].
		{"right-minus-left", NewAnd(NewCmp(GE, sub(rdays, ldays)(), i64(0)), NewCmp(LE, sub(rdays, ldays)(), i64(1))), -1, 0},
		{"left-minus-right", NewAnd(NewCmp(GE, sub(ldays, rdays)(), i64(0)), NewCmp(LE, sub(ldays, rdays)(), i64(1))), 0, 1},
		{"upper-first", NewAnd(NewCmp(LE, sub(ldays, rdays)(), i64(1)), NewCmp(GE, sub(ldays, rdays)(), i64(0))), 0, 1},
		{"strict", NewAnd(NewCmp(GT, sub(lnum, rnum)(), i64(-3)), NewCmp(LT, sub(lnum, rnum)(), i64(3))), -2, 2},
		{"eq", NewAnd(NewCmp(EQ, sub(rnum, lnum)(), i64(4)), NewCmp(GE, sub(rnum, lnum)(), i64(0))), -4, -4},
		{"three-terms", NewAnd(NewCmp(GE, sub(lnum, rdays)(), i64(-5)), NewCmp(LE, sub(lnum, rdays)(), i64(9)), NewCmp(LE, sub(lnum, rdays)(), i64(7))), -5, 7},
		{"empty", NewAnd(NewCmp(GE, sub(lnum, rnum)(), i64(5)), NewCmp(LE, sub(lnum, rnum)(), i64(1))), 5, 1},
		{"at-limit", NewAnd(NewCmp(GE, sub(lnum, rnum)(), i64(-BandLimit)), NewCmp(LE, sub(lnum, rnum)(), i64(BandLimit))), -BandLimit, BandLimit},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, ok := SplitBand(c.pred, 3)
			if !ok {
				t.Fatalf("SplitBand(%s) rejected", c.pred)
			}
			if b.Lo != c.lo || b.Hi != c.hi {
				t.Errorf("interval [%d, %d], want [%d, %d]", b.Lo, b.Hi, c.lo, c.hi)
			}
			for _, col := range b.Left.Cols(nil) {
				if col < 0 || col >= 3 {
					t.Errorf("left term %s reads column %d", b.Left, col)
				}
			}
			for _, col := range b.Right.Cols(nil) {
				if col < 0 || col >= 3 {
					t.Errorf("right term %s reads column %d of its row", b.Right, col)
				}
			}
			// On every pair of part rows, the band's test agrees with the
			// predicate.
			var leftRows, rightRows []types.Row
			for d := int64(-6); d <= 6; d++ {
				leftRows = append(leftRows, types.Row{types.Date(int32(100 + d)), types.Int64(d), types.Float64(0)})
				rightRows = append(rightRows, types.Row{types.Date(int32(100 - d)), types.Int64(-2 * d), types.String("")})
			}
			leftRows = append(leftRows, types.Row{types.Null, types.Null, types.Null})
			rightRows = append(rightRows, types.Row{types.Null, types.Null, types.Null})
			for _, lr := range leftRows {
				for _, rr := range rightRows {
					want, err := EvalPred(c.pred, append(lr.Clone(), rr...))
					if err != nil {
						t.Fatal(err)
					}
					lv, err := b.Left.Eval(lr)
					if err != nil {
						t.Fatal(err)
					}
					rv, err := b.Right.Eval(rr)
					if err != nil {
						t.Fatal(err)
					}
					l, lok := BandValue(lv)
					r, rok := BandValue(rv)
					if !lok || !rok {
						t.Fatalf("BandValue(%v, %v) rejected", lv, rv)
					}
					got := l != BandNull && r != BandNull && r+b.Lo <= l && l <= r+b.Hi
					if got != want {
						t.Fatalf("rows %v, %v: band says %v, predicate %v", lr, rr, got, want)
					}
				}
			}
		})
	}
}

// SplitBand rejects everything but the shape it can separate: it must not
// guess at a predicate whose pairs it cannot test with two int64 compares.
func TestSplitBandRejects(t *testing.T) {
	ldays, lnum, lf, rdays, rnum, rs, rdate := bandTestCols()
	ldate := func() Expr { return NewCol(0, "ldate", types.KindDate) }
	mixed := func() Expr { return NewArith(Add, lnum(), rnum()) }
	constant := func() Expr { return i64(7) }
	between := func(x func() Expr, lo, hi Expr) Expr {
		return NewAnd(NewCmp(GE, x(), lo), NewCmp(LE, x(), hi))
	}
	for _, c := range []struct {
		name string
		pred Expr
	}{
		{"nil", nil},
		{"single-cmp", NewCmp(LE, sub(ldays, rdays)(), i64(1))},
		{"same-side", between(sub(ldays, lnum), i64(0), i64(1))},
		{"mixed-term", between(sub(mixed, rdays), i64(0), i64(1))},
		{"constant-term", between(sub(constant, rdays), i64(0), i64(1))},
		{"float-operand", between(sub(lf, rnum), i64(0), i64(1))},
		{"date-operand", between(sub(ldate, rdate), i64(0), i64(1))},
		{"string-operand", between(sub(lnum, rs), i64(0), i64(1))},
		{"float-literal", between(sub(lnum, rnum), NewLit(types.Float64(0)), i64(1))},
		{"ne", NewAnd(NewCmp(NE, sub(lnum, rnum)(), i64(0)), NewCmp(LE, sub(lnum, rnum)(), i64(1)))},
		{"or", NewOr(NewCmp(GE, sub(lnum, rnum)(), i64(0)), NewCmp(LE, sub(lnum, rnum)(), i64(1)))},
		{"extra-conjunct", NewAnd(NewCmp(GE, sub(lnum, rnum)(), i64(0)), NewCmp(LE, sub(lnum, rnum)(), i64(1)), NewCmp(GE, lnum(), i64(0)))},
		{"different-operands", NewAnd(NewCmp(GE, sub(lnum, rnum)(), i64(0)), NewCmp(LE, sub(ldays, rnum)(), i64(1)))},
		{"literal-left", NewAnd(NewCmp(LE, i64(0), sub(lnum, rnum)()), NewCmp(LE, sub(lnum, rnum)(), i64(1)))},
		{"sum", between(func() Expr { return NewArith(Add, lnum(), rnum()) }, i64(0), i64(1))},
		{"lo-past-limit", between(sub(lnum, rnum), i64(-BandLimit-1), i64(1))},
		{"hi-past-limit", between(sub(lnum, rnum), i64(0), i64(BandLimit+1))},
		{"unbounded", NewAnd(NewCmp(GE, sub(lnum, rnum)(), i64(0)), NewCmp(GE, sub(lnum, rnum)(), i64(1)))},
		{"min-int64", between(sub(lnum, rnum), i64(math.MinInt64), i64(0))},
	} {
		t.Run(c.name, func(t *testing.T) {
			if b, ok := SplitBand(c.pred, 3); ok {
				t.Errorf("SplitBand(%v) = %+v, want rejected", c.pred, b)
			}
		})
	}
}

// BandValue takes NULL to the sentinel and int64s inside ±BandLimit to
// themselves; everything else goes to the general path.
func TestBandValue(t *testing.T) {
	for _, c := range []struct {
		v  types.Value
		x  int64
		ok bool
	}{
		{types.Null, BandNull, true},
		{types.Int64(0), 0, true},
		{types.Int64(BandLimit), BandLimit, true},
		{types.Int64(-BandLimit), -BandLimit, true},
		{types.Int64(BandLimit + 1), 0, false},
		{types.Int64(-BandLimit - 1), 0, false},
		{types.Int64(math.MinInt64), 0, false},
		{types.Int32(3), 0, false},
		{types.Date(3), 0, false},
		{types.Float64(3), 0, false},
		{types.String("3"), 0, false},
	} {
		if x, ok := BandValue(c.v); x != c.x || ok != c.ok {
			t.Errorf("BandValue(%v) = %d, %v; want %d, %v", c.v, x, ok, c.x, c.ok)
		}
	}
}
