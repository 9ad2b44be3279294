package core

import (
	"context"
	"fmt"
	"testing"

	"hybridwh/internal/analyzer"
	"hybridwh/internal/catalog"
	"hybridwh/internal/datagen"
	"hybridwh/internal/edw"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/sqlparse"
	"hybridwh/internal/types"
)

// starFixture is the N-way counterpart of fixture: a star dataset with the
// fact table on HDFS and the dimensions in the database, plus the analyzer
// environment that plans SQL over them.
type starFixture struct {
	eng *Engine
	s   datagen.Star
	env *analyzer.Env
}

func buildStarFixture(t testing.TB, bus netsim.Bus, dbWorkers, jenWorkers int, s datagen.Star, cfg Config) *starFixture {
	t.Helper()
	s = s.WithDefaults()
	if s.Seed == 0 {
		s.Seed = 13
	}
	rec := metrics.New()
	db, err := edw.New(dbWorkers, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.AllDims() {
		schema := d.Schema()
		tbl, err := db.CreateTable(d.Name, schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		var rows []types.Row
		if err := s.GenDim(d.Name, func(r types.Row) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Load(rows); err != nil {
			t.Fatal(err)
		}
		tbl.BuildStats(64)
	}
	dfs := hdfs.New(hdfs.Config{DataNodes: jenWorkers, DisksPerNode: 2, BlockSize: 8192, Replication: 2, Seed: 5})
	cat := catalog.New()
	if err := jen.CreateHDFSTable(dfs, cat, "fact", "/hw/fact", format.HWCName, s.FactSchema(), 3, s.GenFact); err != nil {
		t.Fatal(err)
	}
	jc, err := jen.New(jen.Config{Workers: jenWorkers, Locality: true, BatchRows: 64}, dfs, cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BloomBits == 0 {
		cfg.BloomBits = 1 << 14
	}
	if cfg.BloomHashes == 0 {
		cfg.BloomHashes = 2
	}
	if cfg.BatchRows == 0 {
		cfg.BatchRows = 64
	}
	if cfg.WorkerThreads == 0 {
		cfg.WorkerThreads = 1
	}
	eng, err := New(db, jc, bus, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := cat.Lookup("fact")
	if err != nil {
		t.Fatal(err)
	}
	sources := []*analyzer.SourceMeta{{
		Name: "fact", Source: analyzer.SourceHDFS,
		Schema: ent.Schema, Rows: ent.Rows, Bytes: ent.Bytes,
	}}
	for _, d := range s.AllDims() {
		tbl, err := db.Table(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, &analyzer.SourceMeta{
			Name: d.Name, Source: analyzer.SourceDB,
			Schema: tbl.Schema, Rows: tbl.Rows(),
			Bytes: tbl.Rows() * int64(16*tbl.Schema.Len()),
		})
	}
	env := analyzer.NewEnv(sources...)
	env.Options.Workers = jenWorkers
	return &starFixture{eng: eng, s: s, env: env}
}

// multiPlan analyzes sql against the fixture's environment.
func (f *starFixture) multiPlan(t testing.TB, sql string) *plan.MultiQuery {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := analyzer.Analyze(q, f.env)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := analyzer.Lower(tree, f.env)
	if err != nil {
		t.Fatal(err)
	}
	return mq
}

// multiReference evaluates sql with the single-threaded nested-loop oracle.
func (f *starFixture) multiReference(t testing.TB, sql string) []types.Row {
	t.Helper()
	tables := map[string]analyzer.RefTable{}
	fact := analyzer.RefTable{Schema: f.s.FactSchema()}
	if err := f.s.GenFact(func(r types.Row) error {
		fact.Rows = append(fact.Rows, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tables["fact"] = fact
	for _, d := range f.s.AllDims() {
		rt := analyzer.RefTable{Schema: d.Schema()}
		if err := f.s.GenDim(d.Name, func(r types.Row) error {
			rt.Rows = append(rt.Rows, r.Clone())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tables[d.Name] = rt
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := analyzer.Reference(q, tables, f.env.Registry)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func assertRowsEqual(t testing.TB, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
}

const starTestSQL = `select f.grp, count(*), sum(f.measure)
	from fact f
	join customer c on f.fk_customer = c.key
	join product p on f.fk_product = p.key
	join store s on f.fk_store = s.key
	where c.attr < 400 and p.attr < 500 and s.attr < 700
	group by f.grp`

// starBandSQL is starFullSQL with a band post-join across the plan's last
// edge, customer (the edges run smallest dimension first): term(f.measure) -
// term(c.attr) within [0, 4000], term a one-argument function or "" for the
// bare columns.
func starBandSQL(term string) string {
	return fmt.Sprintf(`select f.grp, count(*), sum(f.measure)
	from fact f
	join customer c on f.fk_customer = c.key
	join product p on f.fk_product = p.key
	join store s on f.fk_store = s.key
	where %[1]s(f.measure) - %[1]s(c.attr) >= 0 and %[1]s(f.measure) - %[1]s(c.attr) <= 4000
	group by f.grp`, term)
}

// starFullSQL joins the three dimensions with no dimension predicate.
const starFullSQL = `select f.grp, count(*), sum(f.measure)
	from fact f
	join customer c on f.fk_customer = c.key
	join product p on f.fk_product = p.key
	join store s on f.fk_store = s.key
	group by f.grp`

func smallStar() datagen.Star {
	return datagen.Star{
		FactRows: 5000,
		Dims: []datagen.DimSpec{
			{Name: "customer", Rows: 300},
			{Name: "product", Rows: 100},
			{Name: "store", Rows: 40},
		},
		Seed:   13,
		Groups: 6,
	}
}

// TestRunMultiMatchesReference drives the engine-level multi-join executor
// directly with a mix of per-edge algorithms (the injected advisor forces
// the largest dimension to repartition, the rest broadcast).
func TestRunMultiMatchesReference(t *testing.T) {
	f := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, smallStar(), Config{})
	defer f.eng.Close()
	// DimRows is the post-selectivity estimate: customer ≈90, product ≈30,
	// store ≈12 under the fixed 0.3 comparison selectivity.
	f.env.Advise = func(es analyzer.EdgeStats) (plan.EdgeAlg, string) {
		if es.DimRows > 50 {
			return plan.EdgeRepartition, "forced repartition"
		}
		return plan.EdgeBroadcast, "forced broadcast"
	}
	mq := f.multiPlan(t, starTestSQL)
	res, err := f.eng.RunMulti(mq)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, res.Rows, f.multiReference(t, starTestSQL))
	if len(res.Edges) != 3 {
		t.Fatalf("edges: %+v", res.Edges)
	}
	var nRep, nBc int
	for _, ed := range res.Edges {
		switch ed.Algorithm {
		case plan.EdgeRepartition:
			nRep++
		case plan.EdgeBroadcast:
			nBc++
		}
	}
	if nRep == 0 || nBc == 0 {
		t.Errorf("want a mix of algorithms, got %d repartition / %d broadcast", nRep, nBc)
	}
}

// TestMultiCascadeReducesShuffle runs the same all-repartition plan with
// and without cascaded Bloom filters: results are identical but the
// cascade must shuffle strictly fewer bytes (the filters drop fact rows
// before the stage-0 shuffle).
func TestMultiCascadeReducesShuffle(t *testing.T) {
	f := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, smallStar(), Config{})
	defer f.eng.Close()
	f.env.Advise = func(analyzer.EdgeStats) (plan.EdgeAlg, string) {
		return plan.EdgeRepartition, "forced repartition"
	}
	run := func(cascade bool) ([]types.Row, int64) {
		f.env.Options.CascadeBloom = cascade
		mq := f.multiPlan(t, starTestSQL)
		f.eng.rec.Reset()
		res, err := f.eng.RunMulti(mq)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, res.Metrics[metrics.JENShuffleBytes]
	}
	withRows, withBytes := run(true)
	withoutRows, withoutBytes := run(false)
	assertRowsEqual(t, withRows, withoutRows)
	if withBytes >= withoutBytes {
		t.Errorf("cascaded Bloom shuffled %d bytes, no-cascade %d — want a reduction", withBytes, withoutBytes)
	}
	t.Logf("shuffled bytes: cascade=%d, no-cascade=%d (%.1f%% saved)",
		withBytes, withoutBytes, 100*(1-float64(withBytes)/float64(withoutBytes)))
}

// TestMultiAdaptiveSwitch forces repartition onto dimensions small enough
// that the mid-query decision point flips later edges to broadcast; the
// result must still match the reference.
func TestMultiAdaptiveSwitch(t *testing.T) {
	f := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, smallStar(), Config{AdaptiveSwitch: true})
	defer f.eng.Close()
	f.env.Advise = func(analyzer.EdgeStats) (plan.EdgeAlg, string) {
		return plan.EdgeRepartition, "forced repartition (misprediction)"
	}
	// No cascade: the intermediate stays large relative to the tiny
	// dimensions, which is exactly the shape where re-costing flips a
	// repartition edge to broadcast.
	f.env.Options.CascadeBloom = false
	mq := f.multiPlan(t, starTestSQL)
	res, err := f.eng.RunMulti(mq)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, res.Rows, f.multiReference(t, starTestSQL))
	if res.Metrics[metrics.AdaptDecisions] == 0 {
		t.Fatalf("no adaptive decision points evaluated: %+v", res.Edges)
	}
	var switched bool
	for _, ed := range res.Edges {
		if ed.Switched {
			switched = true
			if ed.Algorithm != plan.EdgeBroadcast {
				t.Errorf("switched edge %s still reports %s", ed.Dim, ed.Algorithm)
			}
			if ed.SwitchReason == "" {
				t.Errorf("switched edge %s has no reason", ed.Dim)
			}
		}
	}
	if !switched {
		t.Errorf("tiny dimensions on repartition edges: expected at least one mid-query switch, got %+v", res.Edges)
	}
}

// TestMultiBudgetReleasesIntermediates: an all-repartition plan streams
// every stage — the scan scatters into edge 0's shuffle, and each stage
// probes its shuffle as it arrives and scatters its output into the next —
// and an all-broadcast plan builds each dimension before its input arrives
// and probes the input as it streams, so neither holds an intermediate at
// all. What the budget still carries is what is held: the dimensions
// (materialised DB-side, built JEN-side), the aggregation state and the
// scan's in-flight batches, none of which grows with the fact table. Any
// accounting charges a held row at least 48 bytes (a row header, or 16
// bytes per value of a row at least three wide), so with every fact row
// surviving every edge, the peak stays below one intermediate's 48 × n
// bytes, quadrupling n adds less than that to it, and every charge comes
// back.
func TestMultiBudgetReleasesIntermediates(t *testing.T) {
	peak := func(factRows int, alg plan.EdgeAlg) int64 {
		s := smallStar()
		s.FactRows = int64(factRows)
		f := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, s, Config{})
		defer f.eng.Close()
		f.env.Advise = func(analyzer.EdgeStats) (plan.EdgeAlg, string) {
			return alg, "forced " + alg.String()
		}
		mq := f.multiPlan(t, starFullSQL)
		if len(mq.Edges) != 3 || len(mq.FactWire) < 3 {
			t.Fatalf("want 3 edges over a fact wire of at least 3 columns, got %d over %d", len(mq.Edges), len(mq.FactWire))
		}
		bud := mem.NewBudget(1 << 40)
		res, err := f.eng.RunMultiOpts(context.Background(), mq, RunOpts{Budget: bud})
		if err != nil {
			t.Fatal(err)
		}
		assertRowsEqual(t, res.Rows, f.multiReference(t, starFullSQL))
		if got := res.Metrics[metrics.JoinOutputTuples]; got != int64(factRows) {
			t.Fatalf("join output %d rows, want every fact row (%d)", got, factRows)
		}
		if bud.Used() != 0 {
			t.Errorf("%d B still reserved after the query", bud.Used())
		}
		return bud.Peak()
	}
	const n = 5000
	intermediate := int64(48 * n)
	for _, alg := range []plan.EdgeAlg{plan.EdgeRepartition, plan.EdgeBroadcast} {
		small, large := peak(n, alg), peak(4*n, alg)
		if small >= intermediate {
			t.Errorf("%s: budget peak %d B at %d fact rows, want below the %d B of one held intermediate", alg, small, n, intermediate)
		}
		if large-small >= intermediate {
			t.Errorf("%s: budget peak grew %d → %d B when the fact table went %d → %d rows; want less than one intermediate (%d B) of growth",
				alg, small, large, n, 4*n, intermediate)
		}
		t.Logf("%s: budget peak %d B at %d fact rows, %d B at %d", alg, small, n, large, 4*n)
	}
}

// TestRunMultiValidates rejects malformed plans up front.
func TestRunMultiValidates(t *testing.T) {
	f := buildStarFixture(t, netsim.NewChanBus(256), 2, 2, smallStar(), Config{})
	defer f.eng.Close()
	if _, err := f.eng.RunMulti(&plan.MultiQuery{FactTable: "fact"}); err == nil {
		t.Fatal("RunMulti accepted a plan with no edges")
	}
}
