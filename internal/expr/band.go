package expr

import (
	"math"

	"hybridwh/internal/types"
)

// Band is a separable range predicate over a combined layout of a left and
// a right part: lo <= Left - Right <= hi, where Left reads only the left
// part's columns and Right only the right part's, each remapped onto its
// own part's row. A join can evaluate each side's term once per row instead
// of the whole predicate once per pair: with b and p the two sides' values,
// the pair passes exactly when b lies in a range computed from p.
type Band struct {
	Left, Right Expr
	Lo, Hi      int64
}

// BandLimit bounds the magnitudes a band works with: its literals and every
// term value. Inside ±BandLimit, Left - Right, a probe value plus a bound,
// and their negations cannot overflow int64, so the range test is exactly
// the wrapped arithmetic Eval performs.
const BandLimit = 1 << 61

// BandNull is the term value a NULL takes: below every range a value inside
// ±BandLimit plus a bound inside ±BandLimit can open, so a NULL side never
// passes, as NULL comparisons never do.
const BandNull = math.MinInt64

// BandValue converts an evaluated term value to its int64 form: BandNull
// for NULL, the value itself for an int64 inside ±BandLimit. ok is false
// for anything else, which the caller must send down the general path.
func BandValue(v types.Value) (x int64, ok bool) {
	switch {
	case v.IsNull():
		return BandNull, true
	case v.K == types.KindInt64 && -BandLimit <= v.I && v.I <= BandLimit:
		return v.I, true
	}
	return 0, false
}

// SplitBand recognises the band in pred over a combined layout whose first
// leftWidth columns are the left part: an AND of at least two comparisons
// that each test one structurally shared operand x - y against an int64
// literal — the shape filterSharedCmpAnd fuses, so the two agree by
// construction. x and y must both be statically int64 and read columns of
// one part each, opposite parts; the folded interval must lie inside
// ±BandLimit. Anything else, a band with extra conjuncts included, reports
// false.
func SplitBand(pred Expr, leftWidth int) (*Band, bool) {
	and, isAnd := pred.(*Logic)
	if !isAnd || and.Op != And || len(and.Terms) < 2 {
		return nil, false
	}
	first, isCmp := and.Terms[0].(*Cmp)
	if !isCmp {
		return nil, false
	}
	diff, isSub := first.L.(*Arith)
	if !isSub || diff.Op != Sub {
		return nil, false
	}
	ops := make([]CmpOp, 0, len(and.Terms))
	lits := make([]types.Value, 0, len(and.Terms))
	for _, t := range and.Terms {
		c, isCmp := t.(*Cmp)
		if !isCmp || !sameExpr(c.L, diff) {
			return nil, false
		}
		lit, isLit := c.R.(*Lit)
		if !isLit {
			return nil, false
		}
		ops, lits = append(ops, c.Op), append(lits, lit.V)
	}
	lo, hi, ok := int64Interval(ops, lits)
	if !ok || lo < -BandLimit || lo > BandLimit || hi < -BandLimit || hi > BandLimit {
		return nil, false
	}
	if diff.L.Kind() != types.KindInt64 || diff.R.Kind() != types.KindInt64 {
		return nil, false
	}
	xLeft, xOK := oneSide(diff.L, leftWidth)
	yLeft, yOK := oneSide(diff.R, leftWidth)
	if !xOK || !yOK || xLeft == yLeft {
		return nil, false
	}
	left, right := diff.L, diff.R
	if !xLeft {
		// y - x in [lo, hi] is x - y in [-hi, -lo]; the bounds are inside
		// ±BandLimit, so negating them cannot overflow.
		left, right, lo, hi = diff.R, diff.L, -hi, -lo
	}
	l, err := Remap(left, shiftMap(left, 0))
	if err != nil {
		return nil, false
	}
	r, err := Remap(right, shiftMap(right, leftWidth))
	if err != nil {
		return nil, false
	}
	return &Band{Left: l, Right: r, Lo: lo, Hi: hi}, true
}

// oneSide reports whether e reads only left-part columns (left true) or
// only right-part ones; ok is false for a mixed or column-free expression.
func oneSide(e Expr, leftWidth int) (left, ok bool) {
	cols := e.Cols(nil)
	if len(cols) == 0 {
		return false, false
	}
	left = cols[0] < leftWidth
	for _, c := range cols {
		if (c < leftWidth) != left {
			return false, false
		}
	}
	return left, true
}

// shiftMap maps every column e reads to its index less base.
func shiftMap(e Expr, base int) map[int]int {
	m := map[int]int{}
	for _, c := range e.Cols(nil) {
		m[c] = c - base
	}
	return m
}
