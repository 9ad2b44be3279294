package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"

	"hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
	"hybridwh/internal/format"
	"hybridwh/internal/types"
)

// Dataset D: the paper's Section 5 tables at scale 20000 (half the issue's
// D1). The driver's budget — 158 runs inside 57 minutes, each run setting up
// three times — leaves ~20 s per run, which D1's 2.5 s load does not fit.
// Every join-key and predicate ratio is the paper's; only the row counts
// shrink, and Config.Scale follows them so Bloom filters keep the paper's
// 8 bits per key.
const (
	dTRows = 80_000
	dLRows = 750_000
	dKeys  = 800

	starFactRows = 500_000
	starCustomer = 10_000
	starRegion   = 50
	starProduct  = 2_500
	starStore    = 500

	workers = 8

	// mixedBudgetBytes makes the repartition builds of two concurrent scan
	// queries evict partitions (spill.evictions > 0) while the governor keeps
	// peak reserved bytes under the budget.
	mixedBudgetBytes = 16 << 20

	// spillDir keeps spill files inside the checkout (the engine's default
	// is the OS temp directory).
	spillDir = ".bench_build/spill"
)

// starSQLFormat is the 4-join snowflake query; the four attr limits are
// solved per seed (starLimits).
const starSQLFormat = `select f.grp, count(*), sum(f.measure)
from fact f
join customer c on f.fk_customer = c.key
join region r on c.fk_region = r.key
join product p on f.fk_product = p.key
join store s on f.fk_store = s.key
where c.attr < %d and r.attr < %d and p.attr < %d and s.attr < %d
group by f.grp`

// starLimits are the predicate literals of starSQLFormat.
type starLimits struct{ customer, region, product, store int64 }

// solveStarLimits picks each dimension's "attr < limit" literal as the
// quantile of the generated attrs that keeps 60 % of the dimension (90 % of
// region), the way datagen.Solve picks the paper query's literals. With the
// issue's fixed literals (600, 900) the share of 50 random region rows under
// 900 swings the shuffled volume by ±7 % from seed to seed; solved, the
// workload's selectivities are the same on every seed.
func solveStarLimits(s datagen.Star) (starLimits, error) {
	limit := func(dim string, keep float64) (int64, error) {
		var attrs []int64
		if err := s.GenDim(dim, func(r types.Row) error {
			attrs = append(attrs, r[1].Int())
			return nil
		}); err != nil {
			return 0, fmt.Errorf("hwperf: star limits: %w", err)
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
		return attrs[int(keep*float64(len(attrs)))], nil
	}
	var l starLimits
	var err error
	for _, d := range []struct {
		name string
		keep float64
		dst  *int64
	}{{"customer", 0.6, &l.customer}, {"region", 0.9, &l.region}, {"product", 0.6, &l.product}, {"store", 0.6, &l.store}} {
		if *d.dst, err = limit(d.name, d.keep); err != nil {
			return l, err
		}
	}
	return l, nil
}

func (l starLimits) sql() string {
	return fmt.Sprintf(starSQLFormat, l.customer, l.region, l.product, l.store)
}

// sizing shrinks every dataset by Div (1 for measurement, 25 in the smoke
// test) and optionally fixes the number of measured cycles.
type sizing struct {
	Div int64
	// Cycles, when > 0, replaces the time-based stop rule with a fixed
	// number of query cycles (tests).
	Cycles int
	// Setups is how many times the untraced run sets up (median reported).
	Setups int
	// Traced is how many split queries the traced run records, each paired
	// with one whole, untraced query for the overhead comparison.
	Traced int
}

// querySpec is one query shape of a workload's cycle.
type querySpec struct {
	label  string
	sel    datagen.Selectivities
	alg    core.Algorithm
	forced bool
	point  int // advisor_grid point index
	// group names the queries that must return the same rows (one grid
	// point under six algorithms); they share one reference. "" = label.
	group string
}

// workload describes one benchmark workload: what to load, how to configure
// the warehouse, and the cycle of queries the clients walk through.
type workload struct {
	def    workloadDef
	star   bool
	zipf   float64
	adapt  bool
	budget int64
	grid   bool        // advisor_grid: also ask the advisor once per point
	cycle  []querySpec // ticket i runs cycle[i % len(cycle)]
	// replay picks the cycle entry whose pipeline the layer replay rebuilds.
	replay int
}

// clients is the closed loop's client count: one, or min(nproc, 4) for the
// workload that runs under the scheduler's memory budget.
func (wl workload) clients() int {
	if wl.budget == 0 {
		return 1
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

var gridPoints = []datagen.Selectivities{
	{SigmaT: 0.1, SigmaL: 0.01, ST: 0.5, SL: 0.5},
	{SigmaT: 0.1, SigmaL: 0.4, ST: 0.5, SL: 0.1},
	{SigmaT: 0.001, SigmaL: 0.1, ST: 0.5, SL: 0.5},
}

func gridCycle() []querySpec {
	var out []querySpec
	for p, sel := range gridPoints {
		for _, a := range core.PaperAlgorithms() {
			out = append(out, querySpec{label: fmt.Sprintf("p%d/%s", p, a), sel: sel, alg: a, forced: true, point: p, group: fmt.Sprintf("p%d", p)})
		}
	}
	return out
}

func workloads() []workload {
	scan := querySpec{label: "scan", sel: datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.5, SL: 0.8}, alg: core.Repartition, forced: true}
	point := querySpec{label: "point", sel: datagen.Selectivities{SigmaT: 0.01, SigmaL: 0.1, ST: 0.5, SL: 0.5}, alg: core.DBSideBloom, forced: true}
	ws := []workload{
		// σ_L = 0.02, not the issue's 0.01: 0.01 is the advisor's own db(BF)
		// threshold, and its sampled estimate lands on either side of it from
		// seed to seed, so the workload would change algorithm with the seed.
		{cycle: []querySpec{{label: "advisor", sel: datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.02, ST: 0.5, SL: 0.5}}}},
		{cycle: []querySpec{{label: "repartition", sel: datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.3, ST: 0.5, SL: 0.8}, alg: core.Repartition, forced: true}}},
		{cycle: []querySpec{{label: "db(BF)", sel: datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.1, ST: 0.5, SL: 0.5}, alg: core.DBSideBloom, forced: true}}},
		{star: true, cycle: []querySpec{{label: "snowflake"}}},
		{zipf: 1.1, adapt: true, cycle: []querySpec{{label: "repartition(BF)", sel: datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.3, ST: 0.5, SL: 0.8}, alg: core.RepartitionBloom, forced: true}}},
		{budget: mixedBudgetBytes, cycle: []querySpec{scan, scan, scan, point}},
		{grid: true, cycle: gridCycle(), replay: 6 + 3}, // point 1 under repartition: the grid's shuffle-heavy cell
	}
	for i := range ws {
		ws[i].def = workloadDefs[i]
	}
	return ws
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.def.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query is a querySpec resolved against a loaded warehouse.
type query struct {
	spec querySpec
	sql  string
	opts []hybridwh.Option
	ref  []string // canonical reference rows; nil until warm-up fills it
	// refOf points at the query holding the group's shared reference.
	refOf *query
}

func (q *query) reference() []string {
	if q.refOf != nil {
		return q.refOf.ref
	}
	return q.ref
}

// instance is one loaded warehouse with its resolved queries.
type instance struct {
	wl      workload
	w       *hybridwh.Warehouse
	queries []*query
	// advisor holds one hint-free, unforced query per grid point.
	advisor   []*query
	inputRows int64 // rows a query reads: |T|+|L|, or fact + dimensions
	limits    starLimits
}

// dataSeed derives the datagen seed from the run seed. The paper datasets
// pin the permutation offset (seed mod Keys) so the Zipf head — keys 0, 1,
// 2, … — sits inside both predicates' key intervals on every seed; left
// free, some seeds put the hot keys outside L' and skew_zipf degenerates
// into a uniform workload. Row contents still vary with the seed.
func dataSeed(seed, keys int64) int64 { return seed*keys + keys*3/10 }

func (wl workload) config(seed int64, sz sizing) hybridwh.Config {
	cfg := hybridwh.Config{
		DBWorkers: workers, JENWorkers: workers,
		Transport: "chan", Format: format.HWCName,
		Scale:          15e9 / float64(dLRows/sz.Div),
		Seed:           seed,
		AdaptiveSwitch: wl.adapt,
		SpillDir:       spillDir,
	}
	if wl.budget > 0 {
		cfg.MemBudgetBytes = wl.budget / sz.Div
		if cfg.MemBudgetBytes < 1<<20 {
			cfg.MemBudgetBytes = 1 << 20
		}
		cfg.MaxConcurrent = 4
	}
	return cfg
}

// setup opens a warehouse and loads the workload's data: everything
// setup_s times.
func (wl workload) setup(seed int64, sz sizing) (*instance, error) {
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, fmt.Errorf("hwperf: spill dir: %w", err)
	}
	cfg := wl.config(seed, sz)
	w, err := hybridwh.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("hwperf: open: %w", err)
	}
	in := &instance{wl: wl, w: w}
	if err := in.load(seed, sz); err != nil {
		return nil, closeWith(w, err)
	}
	return in, nil
}

func closeWith(w *hybridwh.Warehouse, err error) error {
	return errors.Join(err, w.Close())
}

func (in *instance) load(seed int64, sz sizing) error {
	if in.wl.star {
		s := datagen.Star{
			FactRows: starFactRows / sz.Div,
			Dims: []datagen.DimSpec{
				{Name: "customer", Rows: starCustomer / sz.Div, Sub: &datagen.DimSpec{Name: "region", Rows: starRegion}},
				{Name: "product", Rows: starProduct / sz.Div},
				{Name: "store", Rows: starStore / sz.Div},
			},
			Groups: 10, Seed: seed,
		}
		if err := in.w.LoadStar(s); err != nil {
			return fmt.Errorf("hwperf: load star: %w", err)
		}
		in.inputRows = s.FactRows
		for _, d := range s.AllDims() {
			in.inputRows += d.Rows
		}
		var err error
		if in.limits, err = solveStarLimits(in.w.Star()); err != nil {
			return err
		}
		in.queries = []*query{{spec: in.wl.cycle[0], sql: in.limits.sql()}}
		return nil
	}
	keys := int64(dKeys) / sz.Div
	data := datagen.Data{
		TRows: dTRows / sz.Div, LRows: dLRows / sz.Div, Keys: keys,
		ZipfS: in.wl.zipf, Seed: dataSeed(seed, keys),
	}
	if err := in.w.LoadPaperData(data); err != nil {
		return fmt.Errorf("hwperf: load paper data: %w", err)
	}
	in.inputRows = data.TRows + data.LRows
	byGroup := map[string]*query{}
	for _, qs := range in.wl.cycle {
		// SolveNearest: grid point 1 is infeasible as stated under uniform
		// keys (the paper's Figure 8 cell); it is nudged to the nearest
		// feasible S_T' exactly as the experiments package does.
		wlp, _, err := datagen.SolveNearest(in.w.Data(), qs.sel)
		if err != nil {
			return fmt.Errorf("hwperf: %s: %w", qs.label, err)
		}
		q := &query{spec: qs, sql: hybridwh.PaperQuerySQL(wlp)}
		if qs.forced {
			// The paper's harness passes the |L'| hint with a forced
			// algorithm; the advisor-chosen query runs without hints so the
			// sampling path is part of what it measures.
			q.opts = []hybridwh.Option{
				hybridwh.WithAlgorithm(qs.alg),
				hybridwh.WithCardHint(hybridwh.ExpectedLPrimeRows(wlp)),
				hybridwh.WithSigmaL(qs.sel.SigmaL),
			}
		}
		group := qs.group
		if group == "" {
			group = qs.label
		}
		if first, ok := byGroup[group]; ok {
			q.refOf = first
		} else {
			byGroup[group] = q
		}
		in.queries = append(in.queries, q)
		if in.wl.grid && q.refOf == nil {
			in.advisor = append(in.advisor, &query{spec: querySpec{label: group + "/advisor", point: qs.point}, sql: q.sql, refOf: q})
		}
	}
	return nil
}

// exec runs one query the way the workload's clients do: Submit→Wait under
// the scheduler, Query otherwise.
func (in *instance) exec(ctx context.Context, q *query, extra ...hybridwh.Option) (*hybridwh.Result, error) {
	opts := append(append([]hybridwh.Option(nil), q.opts...), extra...)
	if in.wl.budget > 0 {
		h, err := in.w.Submit(ctx, q.sql, opts...)
		if err != nil {
			return nil, err
		}
		select {
		case <-h.Done():
			return h.Wait()
		case <-ctx.Done():
			return nil, fmt.Errorf("hwperf: %s: %w", q.spec.label, context.Cause(ctx))
		}
	}
	return in.w.QueryCtx(ctx, q.sql, opts...)
}

func (in *instance) close() error { return in.w.Close() }
