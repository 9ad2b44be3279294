package relop

import (
	"fmt"
	"sort"

	"hybridwh/internal/batch"
	"hybridwh/internal/expr"
	"hybridwh/internal/mem"
	"hybridwh/internal/types"
)

// AggKind enumerates the supported aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota // COUNT(*) — Input may be nil
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// AggSpec is one aggregate in the SELECT list.
type AggSpec struct {
	Kind  AggKind
	Input expr.Expr // nil for COUNT(*)
	Name  string    // output column name
}

// PartialWidth is the number of state columns the aggregate occupies in a
// partial-aggregation row (AVG carries sum and count).
func (a AggSpec) PartialWidth() int {
	if a.Kind == AggAvg {
		return 2
	}
	return 1
}

// HashAgg is a mergeable hash aggregator. Workers run it in partial mode and
// ship PartialRows to a designated worker, which merges them with
// MergePartial and extracts the final rows — the paper's partial/final
// aggregation split (Figures 2–4, steps "partial aggregation" and "final
// aggregation").
//
// Groups live in a hash map keyed by a 64-bit hash of the group values
// (types.HashValues) with a collision chain per slot; chain entries compare
// full group values, so hash collisions are correct, merely slower. The
// per-row encode-to-string group key this replaces showed up as the top
// aggregation cost: every input row paid one varint encoding and one string
// allocation before the map lookup.
//
// Partial row layout: [groupValues..., state...] where state flattens each
// aggregate's PartialWidth columns.
type HashAgg struct {
	groupBy []expr.Expr
	aggs    []AggSpec
	groups  map[uint64]*aggGroup // hash → collision chain head
	n       int64

	// Optional memory governance (SetBudget): each new group charges its
	// approximate state bytes. Group creation cannot be refused — an
	// aggregate must absorb every input row — so the charge is a Force,
	// and sustained pressure shows up as budget overshoot while the
	// query's join tables shed partitions to compensate.
	bud      *mem.Budget
	memBytes int64

	// Scratch buffers reused across Add/AddBatch calls.
	keyScratch types.Row
	inScratch  []types.Value
	colScratch [][]types.Value
}

type aggGroup struct {
	keys  types.Row
	state []types.Value
	next  *aggGroup // hash-collision chain
}

// NewHashAgg creates an aggregator.
func NewHashAgg(groupBy []expr.Expr, aggs []AggSpec) *HashAgg {
	return &HashAgg{
		groupBy:    groupBy,
		aggs:       aggs,
		groups:     map[uint64]*aggGroup{},
		keyScratch: make(types.Row, len(groupBy)),
		inScratch:  make([]types.Value, len(aggs)),
	}
}

// Sibling returns an empty aggregator over the same grouping and aggregates:
// a private partial for one probe thread, or the final merge of partials.
func (h *HashAgg) Sibling() *HashAgg { return NewHashAgg(h.groupBy, h.aggs) }

// NumGroups returns the current group count.
func (h *HashAgg) NumGroups() int64 { return h.n }

// SetBudget attaches a query memory budget; call before the first Add.
func (h *HashAgg) SetBudget(bud *mem.Budget) { h.bud = bud }

// MemBytes returns the bytes charged to the budget so far; the owner
// releases them when the aggregate's groups have been shipped.
func (h *HashAgg) MemBytes() int64 { return h.memBytes }

func (h *HashAgg) stateWidth() int {
	w := 0
	for _, a := range h.aggs {
		w += a.PartialWidth()
	}
	return w
}

func keysEqual(a, b types.Row) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// group finds or creates the chain entry for keys. keys may alias scratch
// storage: it is cloned only when a new group is created.
func (h *HashAgg) group(keys types.Row) *aggGroup {
	hk := types.HashValues(keys)
	for g := h.groups[hk]; g != nil; g = g.next {
		if keysEqual(g.keys, keys) {
			return g
		}
	}
	g := &aggGroup{keys: keys.Clone(), state: make([]types.Value, h.stateWidth())}
	s := 0
	for _, a := range h.aggs {
		switch a.Kind {
		case AggCount:
			g.state[s] = types.Int64(0)
		case AggSum:
			g.state[s] = types.Int64(0)
		case AggAvg:
			g.state[s] = types.Float64(0)
			g.state[s+1] = types.Int64(0)
		case AggMin, AggMax:
			g.state[s] = types.Null
		}
		s += a.PartialWidth()
	}
	g.next = h.groups[hk]
	h.groups[hk] = g
	h.n++
	if h.bud != nil {
		est := int64(types.EncodedRowSize(g.keys)) + int64(16*h.stateWidth()) + 96
		h.memBytes += est
		h.bud.Force(est)
	}
	return g
}

// fold accumulates one row's aggregate inputs (one value per AggSpec; the
// entry for COUNT(*) is ignored) into a group's state.
func (h *HashAgg) fold(g *aggGroup, ins []types.Value) {
	s := 0
	for ai, a := range h.aggs {
		in := ins[ai]
		switch a.Kind {
		case AggCount:
			if a.Input == nil || !in.IsNull() {
				g.state[s] = types.Int64(g.state[s].Int() + 1)
			}
		case AggSum:
			if !in.IsNull() {
				g.state[s] = addNumeric(g.state[s], in)
			}
		case AggMin:
			if !in.IsNull() && (g.state[s].IsNull() || types.Compare(in, g.state[s]) < 0) {
				g.state[s] = in
			}
		case AggMax:
			if !in.IsNull() && (g.state[s].IsNull() || types.Compare(in, g.state[s]) > 0) {
				g.state[s] = in
			}
		case AggAvg:
			if !in.IsNull() {
				g.state[s] = types.Float64(g.state[s].Float() + in.Float())
				g.state[s+1] = types.Int64(g.state[s+1].Int() + 1)
			}
		}
		s += a.PartialWidth()
	}
}

// Add folds one input row into the aggregation.
func (h *HashAgg) Add(row types.Row) error {
	keys := h.keyScratch
	for i, e := range h.groupBy {
		v, err := e.Eval(row)
		if err != nil {
			return fmt.Errorf("relop: group-by expr %d: %w", i, err)
		}
		keys[i] = v
	}
	ins := h.inScratch
	for ai, a := range h.aggs {
		ins[ai] = types.Null
		if a.Input != nil {
			var err error
			ins[ai], err = a.Input.Eval(row)
			if err != nil {
				return fmt.Errorf("relop: aggregate input: %w", err)
			}
		}
	}
	h.fold(h.group(keys), ins)
	return nil
}

// AddBatch folds every live row of b into the aggregation. Group-by and
// aggregate-input expressions are evaluated once per batch as columns; the
// per-row work is reduced to the hash-map fold.
func (h *HashAgg) AddBatch(b *batch.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	nk := len(h.groupBy)
	want := nk + len(h.aggs)
	if cap(h.colScratch) < want {
		h.colScratch = make([][]types.Value, want)
	}
	cols := h.colScratch[:want]
	// The scratch columns must stay non-nil: EvalBatchInto's nil-out mode
	// may return a slice aliasing the batch's storage, which must not be
	// retained (or appended into) across calls.
	for i := range cols {
		if cols[i] == nil {
			cols[i] = make([]types.Value, 0, n)
		}
	}
	var err error
	for i, e := range h.groupBy {
		if cols[i], err = expr.EvalBatchInto(e, b, cols[i][:0]); err != nil {
			return fmt.Errorf("relop: group-by expr %d: %w", i, err)
		}
	}
	for ai, a := range h.aggs {
		cols[nk+ai] = cols[nk+ai][:0]
		if a.Input == nil {
			continue
		}
		if cols[nk+ai], err = expr.EvalBatchInto(a.Input, b, cols[nk+ai][:0]); err != nil {
			return fmt.Errorf("relop: aggregate input: %w", err)
		}
	}
	keys := h.keyScratch
	ins := h.inScratch
	for r := 0; r < n; r++ {
		for i := 0; i < nk; i++ {
			keys[i] = cols[i][r]
		}
		for ai := range h.aggs {
			ins[ai] = types.Null
			if c := cols[nk+ai]; len(c) > 0 {
				ins[ai] = c[r]
			}
		}
		h.fold(h.group(keys), ins)
	}
	return nil
}

func addNumeric(acc, in types.Value) types.Value {
	if acc.K == types.KindFloat64 || in.K == types.KindFloat64 {
		return types.Float64(acc.Float() + in.Float())
	}
	return types.Int64(acc.Int() + in.Int())
}

// eachGroup visits every group, in unspecified order.
func (h *HashAgg) eachGroup(fn func(*aggGroup)) {
	for _, g := range h.groups {
		for ; g != nil; g = g.next {
			fn(g)
		}
	}
}

// PartialRows extracts the partial state for shipping.
func (h *HashAgg) PartialRows() []types.Row {
	out := make([]types.Row, 0, h.n)
	h.eachGroup(func(g *aggGroup) {
		row := make(types.Row, 0, len(g.keys)+len(g.state))
		row = append(row, g.keys...)
		row = append(row, g.state...)
		out = append(out, row)
	})
	return out
}

// MergePartial folds a partial row (from PartialRows of a compatible
// aggregator) into this aggregator.
func (h *HashAgg) MergePartial(row types.Row) error {
	nk := len(h.groupBy)
	if len(row) != nk+h.stateWidth() {
		return fmt.Errorf("relop: partial row has %d cols, want %d", len(row), nk+h.stateWidth())
	}
	keys := row[:nk]
	in := row[nk:]
	g := h.group(keys)
	s := 0
	for _, a := range h.aggs {
		switch a.Kind {
		case AggCount, AggSum:
			g.state[s] = addNumeric(g.state[s], in[s])
		case AggMin:
			if !in[s].IsNull() && (g.state[s].IsNull() || types.Compare(in[s], g.state[s]) < 0) {
				g.state[s] = in[s]
			}
		case AggMax:
			if !in[s].IsNull() && (g.state[s].IsNull() || types.Compare(in[s], g.state[s]) > 0) {
				g.state[s] = in[s]
			}
		case AggAvg:
			g.state[s] = types.Float64(g.state[s].Float() + in[s].Float())
			g.state[s+1] = types.Int64(g.state[s+1].Int() + in[s+1].Int())
		}
		s += a.PartialWidth()
	}
	return nil
}

// FinalRows extracts the finished groups: [groupValues..., aggOutputs...],
// sorted by the encoded group key for deterministic output. The sort key is
// the same value encoding the old string-keyed map used, so output order is
// unchanged by the hashed group index.
func (h *HashAgg) FinalRows() []types.Row {
	type keyed struct {
		k string
		g *aggGroup
	}
	all := make([]keyed, 0, h.n)
	var buf []byte
	h.eachGroup(func(g *aggGroup) {
		buf = buf[:0]
		for _, v := range g.keys {
			buf = types.AppendValue(buf, v)
		}
		all = append(all, keyed{k: string(buf), g: g})
	})
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	out := make([]types.Row, 0, len(all))
	for _, kg := range all {
		g := kg.g
		row := make(types.Row, 0, len(g.keys)+len(h.aggs))
		row = append(row, g.keys...)
		s := 0
		for _, a := range h.aggs {
			switch a.Kind {
			case AggAvg:
				cnt := g.state[s+1].Int()
				if cnt == 0 {
					row = append(row, types.Null)
				} else {
					row = append(row, types.Float64(g.state[s].Float()/float64(cnt)))
				}
			default:
				row = append(row, g.state[s])
			}
			s += a.PartialWidth()
		}
		out = append(out, row)
	}
	return out
}
