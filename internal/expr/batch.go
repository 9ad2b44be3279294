package expr

import (
	"fmt"
	"math"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

// Vectorized evaluation. FilterBatch and EvalBatchInto run the common
// expression shapes (comparisons, conjunctions, bare column references,
// arithmetic, function calls over batch-evaluated argument columns) as
// columnar kernels over a batch's live rows, and fall back to the
// row-at-a-time Eval for the rest (OR, NOT). The semantics are exactly
// Eval's — including NULL comparisons being false and AND short-circuiting
// — just without one interface dispatch (and, for calls, one argument-slice
// allocation) per row per tree node.

// FilterBatch narrows b's selection to the live rows satisfying pred. A nil
// predicate keeps every live row.
func FilterBatch(pred Expr, b *batch.Batch) error {
	switch e := pred.(type) {
	case nil:
		return nil
	case *Logic:
		if e.Op == And {
			if ok, err := filterSharedCmpAnd(e, b); ok || err != nil {
				return err
			}
			// Successive narrowing: each term only sees survivors of the
			// previous terms, mirroring Eval's short circuit.
			for _, t := range e.Terms {
				if err := FilterBatch(t, b); err != nil {
					return err
				}
			}
			return nil
		}
	case *Cmp:
		if ok, err := filterCmp(e, b); ok || err != nil {
			return err
		}
		// General comparison: evaluate both operand columns batch-at-a-time
		// (Arith and Call have their own kernels), then compare value pairs.
		// This keeps e.g. the post-join date-difference predicate off the
		// per-row tree-walk fallback.
		return filterCmpColumns(e, b)
	}
	return filterFallback(pred, b)
}

// filterSharedCmpAnd fuses an AND whose terms all compare the *same*
// operand against literals — the shape of range predicates like
// lo <= days(t)-days(l) <= hi. The operand is evaluated once for the whole
// batch instead of once per term; on the post-join path that halves the
// expression work per joined row. "Same" is structural (sameExpr): the SQL
// front end parses each term on its own, so the two operands of a range are
// equal trees, not one shared node. ok reports whether the shape was
// handled. Semantics match the successive-narrowing path: the operand is
// pure, and literal sides cannot fail, so evaluating once and testing all
// bounds per row is Eval's short circuit.
func filterSharedCmpAnd(e *Logic, b *batch.Batch) (ok bool, err error) {
	if len(e.Terms) < 2 {
		return false, nil
	}
	first, isCmp := e.Terms[0].(*Cmp)
	if !isCmp {
		return false, nil
	}
	lits := make([]types.Value, 0, 4)
	ops := make([]CmpOp, 0, 4)
	for _, t := range e.Terms {
		c, isCmp := t.(*Cmp)
		if !isCmp || !sameExpr(c.L, first.L) {
			return false, nil
		}
		lit, isLit := c.R.(*Lit)
		if !isLit {
			return false, nil
		}
		lits, ops = append(lits, lit.V), append(ops, c.Op)
	}
	lv, buf, err := evalTemp(first.L, b)
	if err != nil {
		return true, err
	}
	defer release(buf)
	lo, hi, isInterval := int64Interval(ops, lits)
	j := 0
	b.Filter(func(int) bool {
		v := lv[j]
		j++
		if isInterval && v.K == types.KindInt64 {
			return lo <= v.I && v.I <= hi
		}
		for i := range ops {
			if !cmpTruth(ops[i], v, lits[i]) {
				return false
			}
		}
		return true
	})
	return true, nil
}

// int64Interval folds comparisons against int64 literals into one closed
// interval [lo, hi] (empty when lo > hi): for an int64 operand value, the
// interval test is exactly the conjunction of cmpTruth over the terms. ok
// is false when a literal is not an int64 or an operator is NE.
func int64Interval(ops []CmpOp, lits []types.Value) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for i, op := range ops {
		if lits[i].K != types.KindInt64 {
			return 0, 0, false
		}
		x := lits[i].I
		switch op {
		case EQ:
			lo, hi = max(lo, x), min(hi, x)
		case GE:
			lo = max(lo, x)
		case LE:
			hi = min(hi, x)
		case GT:
			if x == math.MaxInt64 {
				return 1, 0, true
			}
			lo = max(lo, x+1)
		case LT:
			if x == math.MinInt64 {
				return 1, 0, true
			}
			hi = min(hi, x-1)
		default:
			return 0, 0, false
		}
	}
	return lo, hi, true
}

// sameExpr reports whether a and b are structurally equal: the same tree of
// nodes over the same columns (index and kind), literals, operators and
// functions.
func sameExpr(a, b Expr) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Col:
		y, ok := b.(*Col)
		return ok && x.Index == y.Index && x.K == y.K
	case *Lit:
		y, ok := b.(*Lit)
		return ok && x.V == y.V
	case *Cmp:
		y, ok := b.(*Cmp)
		return ok && x.Op == y.Op && sameExpr(x.L, y.L) && sameExpr(x.R, y.R)
	case *Arith:
		y, ok := b.(*Arith)
		return ok && x.Op == y.Op && sameExpr(x.L, y.L) && sameExpr(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && sameExpr(x.E, y.E)
	case *Logic:
		y, ok := b.(*Logic)
		return ok && x.Op == y.Op && sameExprs(x.Terms, y.Terms)
	case *Call:
		y, ok := b.(*Call)
		return ok && x.Fn == y.Fn && sameExprs(x.Args, y.Args)
	}
	return false
}

func sameExprs(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameExpr(a[i], b[i]) {
			return false
		}
	}
	return true
}

// filterCmpColumns narrows b's selection by comparing the batch-evaluated
// operand columns of an arbitrary comparison; a literal right side is
// compared directly.
func filterCmpColumns(c *Cmp, b *batch.Batch) error {
	lv, lbuf, err := evalTemp(c.L, b)
	if err != nil {
		return err
	}
	defer release(lbuf)
	j := 0
	if lit, isLit := c.R.(*Lit); isLit {
		b.Filter(func(int) bool {
			ok := cmpTruth(c.Op, lv[j], lit.V)
			j++
			return ok
		})
		return nil
	}
	rv, rbuf, err := evalTemp(c.R, b)
	if err != nil {
		return err
	}
	defer release(rbuf)
	// Filter only rewrites the selection vector, never column storage, so
	// operand slices aliasing the batch stay valid throughout.
	b.Filter(func(int) bool {
		ok := cmpTruth(c.Op, lv[j], rv[j])
		j++
		return ok
	})
	return nil
}

// valBufPool recycles the temporary value columns the kernels evaluate
// operands into. Without it every expression node allocates one column per
// batch, which turns high-fanout stages (the post-join predicate sees every
// joined row) into GC churn.
var valBufPool = sync.Pool{
	New: func() any { s := make([]types.Value, 0, 256); return &s },
}

// release returns a pooled column from evalTemp; nil (nothing pooled) is a
// no-op.
func release(buf *[]types.Value) {
	if buf != nil {
		valBufPool.Put(buf)
	}
}

// evalTemp evaluates e over b's live rows into a pooled scratch column,
// which must be passed to release exactly once when the values are no
// longer needed. The slice may alias pooled storage or (dense bare columns)
// the batch itself, so it must not be retained past release or batch
// mutation.
func evalTemp(e Expr, b *batch.Batch) (vals []types.Value, buf *[]types.Value, err error) {
	if c, isCol := e.(*Col); isCol && b.Sel() == nil {
		if err := checkCol(c, b); err != nil {
			return nil, nil, err
		}
		return b.Col(c.Index)[:b.Size()], nil, nil
	}
	p := valBufPool.Get().(*[]types.Value)
	out, err := EvalBatchInto(e, b, (*p)[:0])
	*p = out[:0] // keep any growth for the next borrower
	if err != nil {
		valBufPool.Put(p)
		return nil, nil, err
	}
	return out, p, nil
}

// filterCmp applies a comparison kernel when both operands are columns or
// literals; ok reports whether the shape was handled.
func filterCmp(c *Cmp, b *batch.Batch) (ok bool, err error) {
	switch l := c.L.(type) {
	case *Col:
		if err := checkCol(l, b); err != nil {
			return true, err
		}
		switch r := c.R.(type) {
		case *Col:
			if err := checkCol(r, b); err != nil {
				return true, err
			}
			lc, rc := b.Col(l.Index), b.Col(r.Index)
			b.Filter(func(i int) bool { return cmpTruth(c.Op, lc[i], rc[i]) })
			return true, nil
		case *Lit:
			lc, lit := b.Col(l.Index), r.V
			b.Filter(func(i int) bool { return cmpTruth(c.Op, lc[i], lit) })
			return true, nil
		}
	case *Lit:
		if r, isCol := c.R.(*Col); isCol {
			if err := checkCol(r, b); err != nil {
				return true, err
			}
			rc, lit := b.Col(r.Index), l.V
			b.Filter(func(i int) bool { return cmpTruth(c.Op, lit, rc[i]) })
			return true, nil
		}
	}
	return false, nil
}

// cmpTruth is Cmp.Eval + Truth for two concrete values: NULL on either side
// compares false, everything else through types.Compare.
func cmpTruth(op CmpOp, lv, rv types.Value) bool {
	if lv.IsNull() || rv.IsNull() {
		return false
	}
	var n int
	if lv.K == rv.K && lv.K != types.KindString && lv.K != types.KindFloat64 {
		// Same-kind integer compare (the fused range filter's case): skip
		// the general kind analysis.
		switch {
		case lv.I < rv.I:
			n = -1
		case lv.I > rv.I:
			n = 1
		}
	} else {
		n = types.Compare(lv, rv)
	}
	switch op {
	case EQ:
		return n == 0
	case NE:
		return n != 0
	case LT:
		return n < 0
	case LE:
		return n <= 0
	case GT:
		return n > 0
	case GE:
		return n >= 0
	default:
		return false
	}
}

// filterFallback evaluates pred row-at-a-time over a scratch row.
func filterFallback(pred Expr, b *batch.Batch) error {
	scratch := make(types.Row, b.NumCols())
	var evalErr error
	b.Filter(func(i int) bool {
		if evalErr != nil {
			return false
		}
		v, err := pred.Eval(b.RowAt(i, scratch))
		if err != nil {
			evalErr = err
			return false
		}
		return v.Truth()
	})
	return evalErr
}

// EvalBatchInto evaluates e for every live row of b, appending the results
// to out in selection order.
//
// When out is nil, the returned slice may alias the batch's column storage
// (the dense bare-column fast path): treat it as read-only and do not
// retain it past the next mutation of b. Pass a non-nil out to force a
// copy.
func EvalBatchInto(e Expr, b *batch.Batch, out []types.Value) ([]types.Value, error) {
	switch e := e.(type) {
	case *Col:
		if err := checkCol(e, b); err != nil {
			return out, err
		}
		col := b.Col(e.Index)
		if out == nil && b.Sel() == nil {
			return col[:b.Size()], nil
		}
		if out == nil {
			out = make([]types.Value, 0, b.Len())
		}
		err := b.Each(func(i int) error {
			out = append(out, col[i])
			return nil
		})
		return out, err
	case *Lit:
		if out == nil {
			out = make([]types.Value, 0, b.Len())
		}
		err := b.Each(func(int) error {
			out = append(out, e.V)
			return nil
		})
		return out, err
	case *Arith:
		lv, lbuf, err := evalTemp(e.L, b)
		if err != nil {
			return out, err
		}
		defer release(lbuf)
		rv, rbuf, err := evalTemp(e.R, b)
		if err != nil {
			return out, err
		}
		defer release(rbuf)
		if out == nil {
			out = make([]types.Value, 0, len(lv))
		}
		for k := range lv {
			l, r := lv[k], rv[k]
			// Plain int64 arithmetic (e.g. the days() difference) without
			// the general kind dispatch; Div falls through for its zero
			// check, and Date operands for their kind-preserving result.
			if l.K == types.KindInt64 && r.K == types.KindInt64 && e.Op != Div {
				var o int64
				switch e.Op {
				case Add:
					o = l.I + r.I
				case Sub:
					o = l.I - r.I
				case Mul:
					o = l.I * r.I
				}
				out = append(out, types.Int64(o))
				continue
			}
			v, err := e.combine(l, r)
			if err != nil {
				return out, err
			}
			out = append(out, v)
		}
		return out, nil
	case *Call:
		// Arguments evaluate column-at-a-time; the function applies over a
		// single reused argument buffer — no per-row slice allocation, no
		// per-row tree dispatch.
		args := make([][]types.Value, 0, 2)
		bufs := make([]*[]types.Value, 0, 2)
		var err error
		for _, a := range e.Args {
			col, buf, aerr := evalTemp(a, b)
			if err = aerr; err != nil {
				break
			}
			args, bufs = append(args, col), append(bufs, buf)
		}
		if err == nil {
			out, err = applyCall(e, args, b.Len(), out)
		}
		for _, buf := range bufs {
			release(buf)
		}
		return out, err
	}
	if out == nil {
		out = make([]types.Value, 0, b.Len())
	}
	scratch := make(types.Row, b.NumCols())
	var evalErr error
	err := b.Each(func(i int) error {
		v, err := e.Eval(b.RowAt(i, scratch))
		if err != nil {
			evalErr = err
			return err
		}
		out = append(out, v)
		return nil
	})
	if evalErr != nil {
		return out, evalErr
	}
	return out, err
}

// applyCall applies e's function to n rows of evaluated argument columns.
func applyCall(e *Call, args [][]types.Value, n int, out []types.Value) ([]types.Value, error) {
	if out == nil {
		out = make([]types.Value, 0, n)
	}
	if e.Fn.Batch != nil {
		return e.Fn.Batch(args, out)
	}
	vals := make([]types.Value, len(args))
	for k := 0; k < n; k++ {
		for i := range args {
			vals[i] = args[i][k]
		}
		v, err := e.Fn.Apply(vals)
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

func checkCol(c *Col, b *batch.Batch) error {
	if c.Index < 0 || c.Index >= b.NumCols() {
		return fmt.Errorf("column %s index %d out of range (batch has %d)", c.Name, c.Index, b.NumCols())
	}
	return nil
}
