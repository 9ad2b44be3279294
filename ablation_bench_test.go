package hybridwh_test

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one mechanism and reports the metric it moves, so the paper's
// design rationale is checkable rather than asserted.

import (
	"testing"

	"hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
)

const ablScale = 50000

func ablData() datagen.Data {
	return datagen.Data{
		TRows: int64(1.6e9 / ablScale),
		LRows: int64(15e9 / ablScale),
		Keys:  int64(16e6 / ablScale),
	}
}

func ablWarehouse(b *testing.B, mutate func(*hybridwh.Config)) *hybridwh.Warehouse {
	b.Helper()
	cfg := hybridwh.Config{Scale: ablScale, Seed: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := hybridwh.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.LoadPaperData(ablData()); err != nil {
		w.Close()
		b.Fatal(err)
	}
	return w
}

func ablQuery(b *testing.B, w *hybridwh.Warehouse) (string, []hybridwh.Option) {
	b.Helper()
	wl, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.1, SigmaL: 0.4, ST: 0.2, SL: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	return hybridwh.PaperQuerySQL(wl), []hybridwh.Option{hybridwh.WithCardHint(hybridwh.ExpectedLPrimeRows(wl))}
}

// BenchmarkAblationLocality contrasts locality-aware block assignment
// (Section 4.2) with the locality-oblivious baseline: the metric is the
// fraction of scan bytes served by short-circuit local reads.
func BenchmarkAblationLocality(b *testing.B) {
	for _, tc := range []struct {
		name string
		off  bool
	}{{"locality-aware", false}, {"random-assignment", true}} {
		b.Run(tc.name, func(b *testing.B) {
			w := ablWarehouse(b, func(c *hybridwh.Config) { c.NoLocality = tc.off })
			defer w.Close()
			sql, opts := ablQuery(b, w)
			var localFrac float64
			for i := 0; i < b.N; i++ {
				w.HDFS().ResetReadCounters()
				if _, err := w.Query(sql, append(opts, hybridwh.WithAlgorithm(core.Zigzag))...); err != nil {
					b.Fatal(err)
				}
				l, r := w.HDFS().LocalReadBytes(), w.HDFS().RemoteReadBytes()
				localFrac = float64(l) / float64(l+r+1)
			}
			b.ReportMetric(localFrac*100, "%local_reads")
		})
	}
}

// BenchmarkAblationBloomSize sweeps the Bloom filter geometry: smaller
// filters raise the false-positive rate and with it the shuffled tuples —
// the m/k trade-off the paper fixes at 128M bits / 2 hashes.
func BenchmarkAblationBloomSize(b *testing.B) {
	base := uint64(128_000_000 / ablScale)
	for _, tc := range []struct {
		name string
		bits uint64
	}{{"bits÷8", base / 8}, {"paper", base}, {"bits×8", base * 8}} {
		b.Run(tc.name, func(b *testing.B) {
			w := ablWarehouse(b, func(c *hybridwh.Config) { c.BloomBits = tc.bits })
			defer w.Close()
			sql, opts := ablQuery(b, w)
			var shuffled float64
			for i := 0; i < b.N; i++ {
				res, err := w.Query(sql, append(opts, hybridwh.WithAlgorithm(core.RepartitionBloom))...)
				if err != nil {
					b.Fatal(err)
				}
				shuffled = float64(res.Counters["jen.shuffle.tuples"]) * ablScale
			}
			b.ReportMetric(shuffled/1e6, "Mtuples_shuffled_paper")
		})
	}
}

// BenchmarkAblationZigzagDBSide checks the Section 3.4 dismissal: the
// zigzag variant that joins in the database scans HDFS twice and loses to
// the HDFS-side zigzag.
func BenchmarkAblationZigzagDBSide(b *testing.B) {
	for _, alg := range []core.Algorithm{core.Zigzag, core.ZigzagDBVariant} {
		b.Run(alg.String(), func(b *testing.B) {
			w := ablWarehouse(b, nil)
			defer w.Close()
			sql, opts := ablQuery(b, w)
			var est float64
			for i := 0; i < b.N; i++ {
				res, err := w.Query(sql, append(opts, hybridwh.WithAlgorithm(alg))...)
				if err != nil {
					b.Fatal(err)
				}
				est = res.EstimatedTime.Total
			}
			b.ReportMetric(est, "s_paper")
		})
	}
}

// BenchmarkAblationSemijoinVsBloom contrasts exact key sets with Bloom
// filters: the semijoin ships fewer DB tuples (no false positives) but far
// more filter bytes.
func BenchmarkAblationSemijoinVsBloom(b *testing.B) {
	for _, alg := range []core.Algorithm{core.Zigzag, core.SemiJoin} {
		b.Run(alg.String(), func(b *testing.B) {
			w := ablWarehouse(b, nil)
			defer w.Close()
			sql, opts := ablQuery(b, w)
			var sent, filterBytes float64
			for i := 0; i < b.N; i++ {
				res, err := w.Query(sql, append(opts, hybridwh.WithAlgorithm(alg))...)
				if err != nil {
					b.Fatal(err)
				}
				sent = float64(res.Counters["db.sent.tuples"]) * ablScale
				filterBytes = float64(res.Counters["bloom.bytes"]) * ablScale
			}
			b.ReportMetric(sent/1e6, "Mtuples_db_sent_paper")
			b.ReportMetric(filterBytes/1e9, "GB_filters_paper")
		})
	}
}

// BenchmarkAblationSpill compares the all-in-memory build against the
// spilling build (the paper's future work) on the same join: under a 64 KiB
// MemBudgetBytes the scheduler grants the query half of it, and the
// shuffle join's build tables evict partitions to stay inside that.
func BenchmarkAblationSpill(b *testing.B) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"in-memory", 0}, {"spill-64KiB", 64 << 10}} {
		b.Run(tc.name, func(b *testing.B) {
			w := ablWarehouse(b, func(c *hybridwh.Config) {
				c.MemBudgetBytes = tc.budget
				c.SpillDir = b.TempDir()
			})
			defer w.Close()
			sql, opts := ablQuery(b, w)
			var groups int
			for i := 0; i < b.N; i++ {
				res, err := w.Query(sql, append(opts, hybridwh.WithAlgorithm(core.Zigzag))...)
				if err != nil {
					b.Fatal(err)
				}
				groups = len(res.Rows)
			}
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

// BenchmarkAblationBroadcastPath contrasts the two §4.3 broadcast transfer
// schemes: direct DB→all-workers (the paper's choice) vs the relay through
// one JEN worker. The relay trades inter-cluster bytes for an extra
// intra-HDFS round and latency.
func BenchmarkAblationBroadcastPath(b *testing.B) {
	for _, tc := range []struct {
		name  string
		relay bool
	}{{"direct", false}, {"relay", true}} {
		b.Run(tc.name, func(b *testing.B) {
			w := ablWarehouse(b, func(c *hybridwh.Config) { c.BroadcastRelay = tc.relay })
			defer w.Close()
			wl, err := datagen.Solve(w.Data(), datagen.Selectivities{SigmaT: 0.01, SigmaL: 0.2, ST: 0.5, SL: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			sql := hybridwh.PaperQuerySQL(wl)
			var est, crossGB float64
			for i := 0; i < b.N; i++ {
				res, err := w.Query(sql, hybridwh.WithAlgorithm(core.Broadcast),
					hybridwh.WithCardHint(hybridwh.ExpectedLPrimeRows(wl)))
				if err != nil {
					b.Fatal(err)
				}
				est = res.EstimatedTime.Total
				crossGB = w.Model().CrossBytes(w.Engine().Bus().Counters(), ablScale) / 1e9
			}
			b.ReportMetric(est, "s_paper")
			b.ReportMetric(crossGB, "GB_cross_paper")
		})
	}
}
