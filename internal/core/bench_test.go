package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hybridwh/internal/format"
	"hybridwh/internal/netsim"
)

// BenchmarkScanFilterJoin measures the scan → filter → shuffle → join →
// aggregate hot path (the repartition algorithm end to end).
//
// "scale=N" sizes the fixture at N× the unit-test base (300 T / 1000 L
// rows per unit), so scale=100 joins 30k T rows against 100k L rows across
// 4 DB and 6 JEN workers. rows/s is scanned input rows per second.
//
// "batch" pins Config.WorkerThreads to 1 (the deterministic single-threaded
// pipeline); "batch-mt" raises it to GOMAXPROCS, measuring the morsel
// scan/shuffle and partition-parallel probe. On a single-CPU host the two
// coincide (modulo goroutine overhead).
func BenchmarkScanFilterJoin(b *testing.B) {
	for _, scale := range []int{10, 100} {
		tN, lN := 300*scale, 1000*scale
		for _, mode := range []struct {
			name    string
			threads int
		}{
			{"batch", 1},
			{"batch-mt", runtime.GOMAXPROCS(0)},
		} {
			b.Run(fmt.Sprintf("scale=%d/%s", scale, mode.name), func(b *testing.B) {
				f := buildFixture(b, netsim.NewChanBus(256), 4, 6, tN, lN, format.HWCName)
				defer f.eng.Close()
				f.eng.cfg.WorkerThreads = mode.threads
				q := exampleQuery(b, f, 300, 400)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := f.eng.Run(q, Repartition); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				rows := float64(tN+lN) * float64(b.N)
				b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}

// BenchmarkAdaptiveMispredict measures the cost of living with a
// mispredicted plan versus fixing it mid-flight. The fixture is the
// broadcast-switch regime (tiny T', every L key joinable), forced through
// the repartition algorithm as a mispredicting advisor would commit it:
// "static" runs the bad plan to completion, shuffling all of L' to meet a
// few hundred build rows; "adaptive" observes the first batches, abandons
// the shuffle and broadcasts T' instead. The adaptive cell must win —
// that delta is the regression this layer exists to recover. rows/s is
// scanned input rows per second.
func BenchmarkAdaptiveMispredict(b *testing.B) {
	const tN, lN = 600, 20000
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{
		{"static", false},
		{"adaptive", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			f := buildSkewFixtureKeys(b, netsim.NewChanBus(256), 2, 3, tN, lN,
				adaptTestConfig(mode.adaptive), alignedKeys)
			defer f.eng.Close()
			q := exampleQuery(b, f, 300, 400)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.eng.Run(q, Repartition); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rows := float64(tN+lN) * float64(b.N)
			b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkSkewedJoin measures the repartition(BF) join over a uniform
// (zipf=0) and a Zipf(s=1.1) L-key distribution, on the plain hash shuffle
// (skew=0, the name its recorded cells have always had) and with the
// adaptive layer free to escalate to the hybrid partitioner
// (adaptive=true). The interesting cells: on uniform keys the adaptive
// layer's only cost is its K-batch observation window and handshake, while
// on Zipf keys it trades that overhead for a balanced receive side. rows/s
// is scanned input rows per second.
func BenchmarkSkewedJoin(b *testing.B) {
	const tN, lN = 3000, 10000
	for _, zipfS := range []float64{0, 1.1} {
		zipfS := zipfS
		// One Zipf source per fixture build (rand.NewZipf wraps the
		// fixture's own rng), so each sub-benchmark draws an identical key
		// stream.
		newKeyGen := func() func(*rand.Rand) int {
			if zipfS <= 1 {
				return func(rng *rand.Rand) int { return rng.Intn(300) }
			}
			var z *rand.Zipf
			return func(rng *rand.Rand) int {
				if z == nil {
					z = rand.NewZipf(rng, zipfS, 1, 299)
				}
				return int(z.Uint64())
			}
		}
		for _, mode := range []struct {
			name     string
			adaptive bool
		}{
			{"skew=0", false},
			{"adaptive=true", true},
		} {
			b.Run(fmt.Sprintf("zipf=%v/%s", zipfS, mode.name), func(b *testing.B) {
				f := buildSkewFixtureKeys(b, netsim.NewChanBus(256), 4, 6, tN, lN,
					adaptTestConfig(mode.adaptive), newKeyGen())
				defer f.eng.Close()
				q := exampleQuery(b, f, 300, 400)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := f.eng.Run(q, RepartitionBloom); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				rows := float64(tN+lN) * float64(b.N)
				b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}
