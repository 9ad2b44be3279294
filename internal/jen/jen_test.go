package jen

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/catalog"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/metrics"
	"hybridwh/internal/types"
)

func lSchema() types.Schema {
	return types.NewSchema(
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("indPred", types.KindInt32),
		types.C("groupByExtractCol", types.KindString),
	)
}

// makeCluster writes an L table of n rows in the given format and returns a
// JEN cluster over it.
func makeCluster(t *testing.T, formatName string, workers, n int) *Cluster {
	t.Helper()
	dfs := hdfs.New(hdfs.Config{DataNodes: workers, DisksPerNode: 2, BlockSize: 8192, Replication: 2, Seed: 11})
	cat := catalog.New()
	gen := func(emit func(types.Row) error) error {
		for i := 0; i < n; i++ {
			row := types.Row{
				types.Int32(int32(i % 500)),         // joinKey
				types.Int32(int32(i % 1000)),        // corPred
				types.Int32(int32((i * 13) % 1000)), // indPred
				types.String(fmt.Sprintf("grp-%05d/u", i%40)),
			}
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := CreateHDFSTable(dfs, cat, "L", "/hw/L", formatName, lSchema(), 4, gen); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workers: workers, Locality: true, BatchRows: 64}, dfs, cat, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scanRows runs the batch scan on one process thread and hands every
// surviving row to fn, materialized: the row-level view the tests assert on.
func scanRows(c *Cluster, spec ScanSpec, fn func(types.Row) error) error {
	spec.Threads = 1
	return c.ScanFilterBatches(spec, func(b *batch.Batch) error {
		return b.Each(func(i int) error { return fn(b.CloneRow(i)) })
	})
}

func TestNewValidation(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{DataNodes: 2, BlockSize: 1024})
	if _, err := New(Config{Workers: 0}, dfs, catalog.New(), nil); err == nil {
		t.Error("zero workers: want error")
	}
	if _, err := New(Config{Workers: 5}, dfs, catalog.New(), nil); err == nil {
		t.Error("more workers than DataNodes: want error")
	}
}

func TestCreateHDFSTableRegistersStats(t *testing.T) {
	c := makeCluster(t, format.TextName, 4, 2000)
	tbl, err := c.Catalog().Lookup("L")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows != 2000 || tbl.Bytes == 0 {
		t.Errorf("stats: rows=%d bytes=%d", tbl.Rows, tbl.Bytes)
	}
	if got := len(c.HDFS().List("/hw/L/")); got != 4 {
		t.Errorf("files = %d", got)
	}
}

func TestPlanScanCoversEverything(t *testing.T) {
	for _, f := range []string{format.TextName, format.HWCName} {
		t.Run(f, func(t *testing.T) {
			c := makeCluster(t, f, 4, 2000)
			plan, err := c.PlanScan("L")
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Units) != 4 {
				t.Fatalf("unit lists = %d", len(plan.Units))
			}
			// Scanning all workers' units yields every row exactly once.
			var mu sync.Mutex
			counts := map[int64]int{}
			var total int64
			for w := 0; w < c.Workers(); w++ {
				w := w
				err := scanRows(c, ScanSpec{Plan: plan, Worker: w, Proj: []int{0}}, func(r types.Row) error {
					mu.Lock()
					counts[r[0].Int()]++
					total++
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if total != 2000 {
				t.Errorf("total rows = %d", total)
			}
			// 2000 rows over 500 join keys: each key seen exactly 4 times.
			for k, n := range counts {
				if n != 4 {
					t.Errorf("key %d seen %d times", k, n)
				}
			}
		})
	}
}

func TestPlanScanErrors(t *testing.T) {
	c := makeCluster(t, format.TextName, 4, 100)
	if _, err := c.PlanScan("missing"); err == nil {
		t.Error("unknown table: want error")
	}
	// Register a table with a bogus format.
	if err := c.Catalog().Register(catalog.Table{
		Name: "B", Path: "/hw/L/", Format: "bogus", Schema: lSchema(), Rows: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanScan("B"); err == nil {
		t.Error("unknown format: want error")
	}
	// Table with no files.
	if err := c.Catalog().Register(catalog.Table{
		Name: "E", Path: "/nowhere/", Format: format.TextName, Schema: lSchema(), Rows: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanScan("E"); err == nil {
		t.Error("empty table dir: want error")
	}
}

func TestScanFilterPredicateAndProjection(t *testing.T) {
	c := makeCluster(t, format.HWCName, 4, 2000)
	plan, err := c.PlanScan("L")
	if err != nil {
		t.Fatal(err)
	}
	// Projected layout: (joinKey, corPred); predicate corPred <= 99 (10%).
	proj := []int{0, 1}
	pred := expr.NewCmp(expr.LE, expr.NewCol(1, "corPred", types.KindInt32), expr.NewLit(types.Int32(99)))
	var total int64
	for w := 0; w < c.Workers(); w++ {
		err := scanRows(c, ScanSpec{Plan: plan, Worker: w, Proj: proj, Pred: pred}, func(r types.Row) error {
			if len(r) != 2 {
				return fmt.Errorf("row width %d", len(r))
			}
			if r[1].Int() > 99 {
				return fmt.Errorf("predicate leak: corPred=%d", r[1].Int())
			}
			total++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 200 {
		t.Errorf("filtered rows = %d, want 200", total)
	}
	// Counters recorded per worker.
	if c.Recorder().Get(metrics.JENScanRows) != 2000 {
		t.Errorf("scan rows = %d", c.Recorder().Get(metrics.JENScanRows))
	}
	if c.Recorder().Get(metrics.JENScanBytes) == 0 {
		t.Error("no scan bytes recorded")
	}
}

func TestScanFilterDBBloomPrunes(t *testing.T) {
	c := makeCluster(t, format.HWCName, 4, 2000)
	plan, err := c.PlanScan("L")
	if err != nil {
		t.Fatal(err)
	}
	// BF_DB contains join keys 0..49 only.
	bf := bloom.New(1<<16, 2)
	for k := int64(0); k < 50; k++ {
		bf.AddHash(types.BloomHashKey(k))
	}
	var kept int64
	fp := 0
	for w := 0; w < c.Workers(); w++ {
		err := scanRows(c, ScanSpec{
			Plan: plan, Worker: w, Proj: []int{0}, DBFilter: BloomKeyFilter{F: bf}, BloomKeyIdx: 0,
		}, func(r types.Row) error {
			kept++
			if r[0].Int() >= 50 {
				fp++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// 2000 rows over keys 0..499 → 4 rows per key; keys 0..49 → 200 rows
	// plus Bloom false positives.
	if kept < 200 || kept > 260 {
		t.Errorf("kept %d rows; want 200 + small FP", kept)
	}
	if fp > 60 {
		t.Errorf("false positives %d out of bounds", fp)
	}
}

func TestScanFilterBuildsBFH(t *testing.T) {
	c := makeCluster(t, format.TextName, 4, 2000)
	plan, err := c.PlanScan("L")
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.NewCmp(expr.LE, expr.NewCol(1, "corPred", types.KindInt32), expr.NewLit(types.Int32(199)))
	locals := make([]*bloom.Filter, c.Workers())
	for w := 0; w < c.Workers(); w++ {
		locals[w] = bloom.New(1<<16, 2)
		err := scanRows(c, ScanSpec{
			Plan: plan, Worker: w, Proj: []int{0, 1}, Pred: pred,
			BuildKeys: BloomKeyFilter{F: locals[w]}, BloomKeyIdx: 0,
		}, func(types.Row) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	global := locals[0]
	for _, l := range locals[1:] {
		if err := global.Union(l); err != nil {
			t.Fatal(err)
		}
	}
	// Surviving rows have i%1000 <= 199, i.e. joinKeys i%500 ∈ 0..199 — all
	// those keys must be present in BF_H.
	for k := int64(0); k < 200; k++ {
		if !global.TestHash(types.BloomHashKey(k)) {
			t.Errorf("BF_H missing key %d", k)
		}
	}
}

// TestReaderFilterMatchesAcrossFormats: with the predicate, a Bloom DB
// filter and an exact cascade filter running in the readers — HWC before its
// late columns are decoded, text after parsing — both formats at 1 and 3
// process threads select the same rows, charge the same rows to the scan
// and process counters, and fill the same Bloom and exact key sinks.
func TestReaderFilterMatchesAcrossFormats(t *testing.T) {
	bf := bloom.New(1<<12, 2)
	for k := int64(0); k < 300; k += 2 {
		bf.AddHash(types.BloomHashKey(k))
	}
	cascade := KeySet{}
	for v := int64(0); v < 1000; v += 3 {
		cascade.AddKey(v)
	}
	// Layout (groupByExtractCol, indPred, joinKey, corPred): the late string
	// column comes first, the key columns sit anywhere.
	proj := []int{3, 2, 0, 1}
	pred := expr.NewCmp(expr.LE, expr.NewCol(3, "corPred", types.KindInt32), expr.NewLit(types.Int32(599)))
	type result struct {
		rows                         []string
		scanRows, processed, morsels int64
		bloomSink                    []byte
		exactSink                    KeySet
	}
	var results []result
	var names []string
	for _, f := range []string{format.TextName, format.HWCName} {
		for _, threads := range []int{1, 3} {
			c := makeCluster(t, f, 4, 2000)
			plan, err := c.PlanScan("L")
			if err != nil {
				t.Fatal(err)
			}
			res := result{exactSink: KeySet{}}
			bloomSink := BloomKeyFilter{F: bloom.New(1<<12, 2)}
			var mu sync.Mutex
			for w := 0; w < c.Workers(); w++ {
				for _, sink := range []KeySink{bloomSink, res.exactSink} {
					spec := ScanSpec{
						Plan: plan, Worker: w, Proj: proj, Pred: pred,
						DBFilter: BloomKeyFilter{F: bf}, BloomKeyIdx: 2,
						Cascade:   []CascadeFilter{{Filter: cascade, KeyIdx: 1}},
						BuildKeys: sink, Threads: threads,
					}
					err := c.ScanFilterBatches(spec, func(b *batch.Batch) error {
						mu.Lock()
						defer mu.Unlock()
						return b.Each(func(i int) error {
							if _, exact := sink.(KeySet); !exact {
								res.rows = append(res.rows, fmt.Sprint(b.CloneRow(i)))
							}
							return nil
						})
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			sort.Strings(res.rows)
			rec := c.Recorder()
			res.scanRows, res.processed, res.morsels = rec.Get(metrics.JENScanRows), rec.Get(metrics.JENProcessTuples), rec.Get(metrics.JENMorselTuples)
			res.bloomSink = bloomSink.F.Marshal()
			results = append(results, res)
			names = append(names, fmt.Sprintf("%s/threads=%d", f, threads))
		}
	}
	want := results[0]
	if len(want.rows) == 0 || len(want.rows) == 2000 || len(want.exactSink) == 0 {
		t.Fatalf("filters select %d of 2000 rows (%d keys): the test needs a proper subset", len(want.rows), len(want.exactSink))
	}
	for i, got := range results[1:] {
		name := names[i+1]
		if !slices.Equal(got.rows, want.rows) {
			t.Errorf("%s: %d rows, want %d (text, 1 thread)", name, len(got.rows), len(want.rows))
		}
		if got.scanRows != want.scanRows || got.processed != want.processed || got.morsels != want.morsels {
			t.Errorf("%s: scan/process/morsel rows %d/%d/%d, want %d/%d/%d", name,
				got.scanRows, got.processed, got.morsels, want.scanRows, want.processed, want.morsels)
		}
		if !bytes.Equal(got.bloomSink, want.bloomSink) {
			t.Errorf("%s: Bloom key sink differs", name)
		}
		if !maps.Equal(got.exactSink, want.exactSink) {
			t.Errorf("%s: exact key sink has %d keys, want %d", name, len(got.exactSink), len(want.exactSink))
		}
	}
}

func TestScanFilterYieldErrorStopsPipeline(t *testing.T) {
	c := makeCluster(t, format.TextName, 4, 2000)
	plan, err := c.PlanScan("L")
	if err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("stop")
	err = scanRows(c, ScanSpec{Plan: plan, Worker: 0, Proj: []int{0}}, func(types.Row) error {
		return sentinel
	})
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestScanFilterEmptyWorker(t *testing.T) {
	// With more workers than blocks, some workers get no units.
	dfs := hdfs.New(hdfs.Config{DataNodes: 8, BlockSize: 1 << 20, Replication: 2, Seed: 1})
	cat := catalog.New()
	gen := func(emit func(types.Row) error) error {
		return emit(types.Row{types.Int32(1), types.Int32(1), types.Int32(1), types.String("grp-1/x")})
	}
	if err := CreateHDFSTable(dfs, cat, "tiny", "/hw/tiny", format.TextName, lSchema(), 1, gen); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Workers: 8, Locality: true}, dfs, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.PlanScan("tiny")
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for w := 0; w < 8; w++ {
		if err := scanRows(c, ScanSpec{Plan: plan, Worker: w, Proj: []int{0}}, func(types.Row) error {
			total++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total != 1 {
		t.Errorf("rows = %d", total)
	}
}

func TestHWCPrunerPushdown(t *testing.T) {
	c := makeCluster(t, format.HWCName, 4, 2000)
	plan, err := c.PlanScan("L")
	if err != nil {
		t.Fatal(err)
	}
	// Without pruner.
	noop := func(types.Row) error { return nil }
	for w := 0; w < c.Workers(); w++ {
		if err := scanRows(c, ScanSpec{Plan: plan, Worker: w, Proj: []int{0}}, noop); err != nil {
			t.Fatal(err)
		}
	}
	without := c.Recorder().Get(metrics.JENScanBytes)
	c.Recorder().Reset()
	// With an impossible range: every group pruned, near-zero bytes.
	pruner := &format.Pruner{Ranges: []format.IntRange{{Col: 1, Lo: 5000, Hi: 6000}}}
	for w := 0; w < c.Workers(); w++ {
		if err := scanRows(c, ScanSpec{Plan: plan, Worker: w, Proj: []int{0}, Pruner: pruner}, noop); err != nil {
			t.Fatal(err)
		}
	}
	with := c.Recorder().Get(metrics.JENScanBytes)
	if with >= without/2 {
		t.Errorf("pruning ineffective: %d vs %d bytes", with, without)
	}
}

func TestLocalityShortCircuitReads(t *testing.T) {
	c := makeCluster(t, format.TextName, 4, 5000)
	plan, err := c.PlanScan("L")
	if err != nil {
		t.Fatal(err)
	}
	c.HDFS().ResetReadCounters()
	for w := 0; w < c.Workers(); w++ {
		if err := scanRows(c, ScanSpec{Plan: plan, Worker: w, Proj: []int{0}}, func(types.Row) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	local, remote := c.HDFS().LocalReadBytes(), c.HDFS().RemoteReadBytes()
	if local == 0 {
		t.Fatal("no short-circuit reads at all")
	}
	if frac := float64(local) / float64(local+remote); frac < 0.8 {
		t.Errorf("local read fraction %.2f; locality-aware assignment should keep most reads local", frac)
	}
}

func TestCreateHDFSTableErrors(t *testing.T) {
	dfs := hdfs.New(hdfs.Config{DataNodes: 2, BlockSize: 1024})
	cat := catalog.New()
	if err := CreateHDFSTable(dfs, cat, "x", "/x", "bogus", lSchema(), 1, nil); err == nil {
		t.Error("bogus format: want error")
	}
	genErr := fmt.Errorf("gen failed")
	err := CreateHDFSTable(dfs, cat, "x", "/y", format.TextName, lSchema(), 1, func(func(types.Row) error) error {
		return genErr
	})
	if err != genErr {
		t.Errorf("err = %v", err)
	}
}
