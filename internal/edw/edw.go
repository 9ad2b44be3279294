// Package edw implements the enterprise data warehouse side of the hybrid
// warehouse: a shared-nothing parallel database in the mould of the paper's
// DB2 DPF deployment. Tables are hash-partitioned across workers on a
// distribution column; each worker holds its partition in memory with
// composite sorted indexes; equi-width histograms drive a small optimizer
// that chooses access paths (table scan, index range scan, index-only scan)
// and DB-side join strategies.
//
// The package exposes storage and per-worker access primitives; the
// distributed dataflow of the join algorithms (who sends what to whom) lives
// in internal/core, mirroring how the paper drives DB2 through UDFs from a
// single query.
package edw

import (
	"fmt"
	"sort"
	"sync"

	"hybridwh/internal/bloom"
	"hybridwh/internal/expr"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// DB is the parallel database: shared metadata plus per-worker partitions.
type DB struct {
	mu     sync.RWMutex
	nwork  int
	tables map[string]*Table // guarded by mu
	rec    *metrics.Recorder
}

// Table is the shared metadata for a distributed table.
type Table struct {
	Name    string
	Schema  types.Schema
	DistCol int // hash-distribution column (the paper's T is distributed on uniqKey)

	mu      sync.RWMutex
	rows    int64              // guarded by mu
	hists   map[int]*Histogram // by column index, int-kinded columns only; guarded by mu
	indexes []*IndexDef        // guarded by mu
	parts   []*partition       // one per worker; the slice header is fixed at CreateTable, partitions guard themselves
}

// IndexDef names a composite index and its key columns (in order).
type IndexDef struct {
	Name string
	Cols []int
}

// partition is one worker's slice of a table.
type partition struct {
	rows    []types.Row
	indexes map[string]*index // by index name
}

// New creates a database with the given number of workers.
func New(workers int, rec *metrics.Recorder) (*DB, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("edw: need at least one worker")
	}
	if rec == nil {
		rec = metrics.New()
	}
	return &DB{nwork: workers, tables: map[string]*Table{}, rec: rec}, nil
}

// Workers returns the worker count.
func (db *DB) Workers() int { return db.nwork }

// Recorder returns the metrics recorder.
func (db *DB) Recorder() *metrics.Recorder { return db.rec }

// CreateTable registers an empty distributed table.
func (db *DB) CreateTable(name string, schema types.Schema, distCol int) (*Table, error) {
	if schema.Len() == 0 {
		return nil, fmt.Errorf("edw: table %s: empty schema", name)
	}
	if distCol < 0 || distCol >= schema.Len() {
		return nil, fmt.Errorf("edw: table %s: distribution column %d out of range", name, distCol)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("edw: table %s already exists", name)
	}
	t := &Table{
		Name: name, Schema: schema, DistCol: distCol,
		hists: map[int]*Histogram{},
		parts: make([]*partition, db.nwork),
	}
	for i := range t.parts {
		t.parts[i] = &partition{indexes: map[string]*index{}}
	}
	db.tables[name] = t
	return t, nil
}

// Table looks up a table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("edw: unknown table %q", name)
	}
	return t, nil
}

// Load appends rows, routing each to the worker owning its distribution-key
// hash. Histograms are updated; indexes must be created after loading.
func (t *Table) Load(rows []types.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("edw: %s: row has %d cols, schema %d", t.Name, len(r), t.Schema.Len())
		}
		w := int(types.PartitionHash(r[t.DistCol]) % uint64(len(t.parts)))
		t.parts[w].rows = append(t.parts[w].rows, r)
		t.rows++
	}
	return nil
}

// Rows returns the total loaded row count.
func (t *Table) Rows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// PartitionRows returns worker w's row count.
func (t *Table) PartitionRows(w int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if w < 0 || w >= len(t.parts) {
		return 0
	}
	return int64(len(t.parts[w].rows))
}

// BuildStats computes equi-width histograms for every integer-kinded column.
// Call after loading.
func (t *Table) BuildStats(buckets int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c, col := range t.Schema.Cols {
		switch col.Kind {
		case types.KindInt32, types.KindInt64, types.KindDate, types.KindTime:
			h := newHistogramBuilder(buckets)
			for _, p := range t.parts {
				for _, r := range p.rows {
					h.add(r[c].Int())
				}
			}
			t.hists[c] = h.build()
		}
	}
}

// Histogram returns the histogram for a column (nil if none).
func (t *Table) Histogram(col int) *Histogram {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.hists[col]
}

// CreateIndex builds a composite sorted index on every partition, in
// parallel across workers.
func (t *Table) CreateIndex(name string, cols []int) error {
	for _, c := range cols {
		if c < 0 || c >= t.Schema.Len() {
			return fmt.Errorf("edw: index %s: column %d out of range", name, c)
		}
		switch t.Schema.Cols[c].Kind {
		case types.KindInt32, types.KindInt64, types.KindDate, types.KindTime:
		default:
			return fmt.Errorf("edw: index %s: column %s is not integer-kinded", name, t.Schema.Cols[c].Name)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.indexes {
		if d.Name == name {
			return fmt.Errorf("edw: index %s already exists on %s", name, t.Name)
		}
	}
	def := &IndexDef{Name: name, Cols: append([]int(nil), cols...)}
	t.indexes = append(t.indexes, def)
	return par.ForEach(len(t.parts), func(w int) error {
		p := t.parts[w]
		p.indexes[name] = buildIndex(p.rows, def.Cols)
		return nil
	})
}

// Indexes returns the index definitions.
func (t *Table) Indexes() []*IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*IndexDef(nil), t.indexes...)
}

// index is one partition's sorted position list.
type index struct {
	cols []int
	pos  []int32 // row positions sorted lexicographically by cols' values
}

func buildIndex(rows []types.Row, cols []int) *index {
	ix := &index{cols: cols, pos: make([]int32, len(rows))}
	for i := range ix.pos {
		ix.pos[i] = int32(i)
	}
	sort.Slice(ix.pos, func(a, b int) bool {
		ra, rb := rows[ix.pos[a]], rows[ix.pos[b]]
		for _, c := range cols {
			if ra[c].I != rb[c].I {
				return ra[c].I < rb[c].I
			}
		}
		return ix.pos[a] < ix.pos[b]
	})
	return ix
}

// leadingRange iterates the positions whose leading indexed column value is
// in [lo, hi], in index order.
func (ix *index) leadingRange(rows []types.Row, lo, hi int64, fn func(pos int32) error) error {
	lead := ix.cols[0]
	start := sort.Search(len(ix.pos), func(i int) bool { return rows[ix.pos[i]][lead].I >= lo })
	for i := start; i < len(ix.pos); i++ {
		p := ix.pos[i]
		if rows[p][lead].I > hi {
			return nil
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// covers reports whether the index's key includes every column in need.
func (d *IndexDef) covers(need []int) bool {
	for _, n := range need {
		found := false
		for _, c := range d.Cols {
			if c == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// BuildBloom builds the global database Bloom filter BF_DB over the join
// keys of rows passing pred — the paper's cal_filter/get_filter/
// combine_filter UDF chain. Workers build local filters in parallel
// (index-only when a covering index exists) and the locals are OR-ed into
// the global filter. Counters record whether rows were touched via an index
// or a scan.
func (db *DB) BuildBloom(t *Table, pred expr.Expr, keyCol int, mBits uint64, k int) (*bloom.Filter, error) {
	plan := db.PlanAccess(t, pred, append(expr.ColumnSet(pred), keyCol))
	locals := make([]*bloom.Filter, db.nwork)
	err := par.ForEach(db.nwork, func(w int) error {
		bf := bloom.New(mBits, k)
		err := db.scanPartition(t, w, plan, func(row types.Row) error {
			bf.AddHash(types.BloomHashKey(row[keyCol].Int()))
			return nil
		})
		locals[w] = bf
		return err
	})
	if err != nil {
		return nil, err
	}
	global := locals[0]
	for _, l := range locals[1:] {
		if err := global.Union(l); err != nil {
			return nil, err
		}
	}
	db.rec.Add(metrics.BloomBuildKeys, int64(global.EstimateCardinality()))
	return global, nil
}

// BuildKeySet collects the distinct join keys of rows passing pred — the
// exact-semijoin counterpart of BuildBloom, using the same (index-only
// capable) access path. Counters record the rows touched.
func (db *DB) BuildKeySet(t *Table, pred expr.Expr, keyCol int) (map[int64]struct{}, error) {
	plan := db.PlanAccess(t, pred, append(expr.ColumnSet(pred), keyCol))
	locals := make([]map[int64]struct{}, db.nwork)
	err := par.ForEach(db.nwork, func(w int) error {
		set := map[int64]struct{}{}
		err := db.scanPartition(t, w, plan, func(row types.Row) error {
			set[row[keyCol].Int()] = struct{}{}
			return nil
		})
		locals[w] = set
		return err
	})
	if err != nil {
		return nil, err
	}
	union := locals[0]
	for _, l := range locals[1:] {
		for k := range l {
			union[k] = struct{}{}
		}
	}
	return union, nil
}

// FilterProject evaluates pred over worker w's partition and returns the
// projected surviving rows (T' for that worker). The access plan must come
// from PlanAccess so every worker follows the optimizer's choice. The engine
// reads T' through FilterProjectBatches; this row form is the reference the
// edw tests and the benchmark's layer replay use.
func (db *DB) FilterProject(t *Table, w int, plan AccessPlan, proj []int) ([]types.Row, error) {
	var out []types.Row
	err := db.scanPartition(t, w, plan, func(row types.Row) error {
		out = append(out, row.Project(proj))
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.rec.AddAt(metrics.DBFilteredRows, w, int64(len(out)))
	return out, nil
}

// scanPartition drives one worker's access path, invoking fn for each row
// passing the plan's predicate.
func (db *DB) scanPartition(t *Table, w int, plan AccessPlan, fn func(types.Row) error) error {
	t.mu.RLock()
	p := t.parts[w]
	t.mu.RUnlock()
	switch plan.Path {
	case PathTableScan:
		db.rec.AddAt(metrics.DBScanRows, w, int64(len(p.rows)))
		for _, row := range p.rows {
			ok, err := expr.EvalPred(plan.Pred, row)
			if err != nil {
				return err
			}
			if ok {
				if err := fn(row); err != nil {
					return err
				}
			}
		}
		return nil
	case PathIndexRange, PathIndexOnly:
		ix := p.indexes[plan.Index]
		if ix == nil {
			return fmt.Errorf("edw: worker %d missing index %s on %s", w, plan.Index, t.Name)
		}
		var touched int64
		err := ix.leadingRange(p.rows, plan.Lo, plan.Hi, func(pos int32) error {
			touched++
			row := p.rows[pos]
			ok, err := expr.EvalPred(plan.Pred, row)
			if err != nil {
				return err
			}
			if ok {
				return fn(row)
			}
			return nil
		})
		db.rec.AddAt(metrics.DBIndexRows, w, touched)
		return err
	default:
		return fmt.Errorf("edw: unknown access path %d", plan.Path)
	}
}
