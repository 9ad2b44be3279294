package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hybridwh/internal/catalog"
	"hybridwh/internal/edw"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/types"
)

// buildSkewFixtureKeys is buildFixture with a caller-chosen L join-key
// distribution (hotKeys90 plants a heavy hitter on join key 7, which
// survives the fixture's predicates on both sides and so dominates the
// surviving shuffle; the benchmarks draw Zipf keys) and a caller-controlled
// engine config, so the same data can run with the adaptive layer on and
// off.
func buildSkewFixtureKeys(t testing.TB, bus netsim.Bus, dbWorkers, jenWorkers, tN, lN int, cfg Config, nextKey func(*rand.Rand) int) *fixture {
	t.Helper()
	rec := metrics.New()
	rng := rand.New(rand.NewSource(77))

	db, err := edw.New(dbWorkers, rec)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("T", tSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var tRows []types.Row
	for i := 0; i < tN; i++ {
		jk := rng.Intn(200)
		tRows = append(tRows, types.Row{
			types.Int64(int64(i)),
			types.Int32(int32(jk)),
			types.Int32(int32(jk*5 + rng.Intn(5))),
			types.Int32(int32(rng.Intn(1000))),
			types.Date(int32(16000 + rng.Intn(30))),
		})
	}
	if err := tbl.Load(tRows); err != nil {
		t.Fatal(err)
	}
	tbl.BuildStats(64)
	if err := tbl.CreateIndex("cor_ind_key", []int{2, 3, 1}); err != nil {
		t.Fatal(err)
	}

	dfs := hdfs.New(hdfs.Config{DataNodes: jenWorkers, DisksPerNode: 2, BlockSize: 8192, Replication: 2, Seed: 5})
	cat := catalog.New()
	var lRows []types.Row
	gen := func(emit func(types.Row) error) error {
		for i := 0; i < lN; i++ {
			jk := nextKey(rng)
			row := types.Row{
				types.Int32(int32(jk)),
				types.Int32(int32(((jk+60)%300)*3 + rng.Intn(3))),
				types.Int32(int32(rng.Intn(1000))),
				types.Date(int32(16000 + rng.Intn(30))),
				types.String(fmt.Sprintf("grp-%05d/page", rng.Intn(12))),
			}
			lRows = append(lRows, row)
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	if err := jen.CreateHDFSTable(dfs, cat, "L", "/hw/L", format.HWCName, lSchema(), 3, gen); err != nil {
		t.Fatal(err)
	}
	jc, err := jen.New(jen.Config{Workers: jenWorkers, Locality: true, BatchRows: 64}, dfs, cat, rec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, jc, bus, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{eng: eng, dfs: dfs, tRows: tRows, lRows: lRows, tSch: tSchema(), lSch: lSchema()}
}

// TestSkewedJoinMatchesPlainPartitioner is the result-identity guarantee:
// on identically-seeded skewed data every algorithm family returns exactly
// the reference answer, byte-identical with the adaptive layer off and on,
// on both transports — and for the shuffle joins "on" means the run
// escalated to the hybrid partitioner mid-query (the other families have no
// shuffle to re-route and must not report a switch).
func TestSkewedJoinMatchesPlainPartitioner(t *testing.T) {
	algs := []Algorithm{DBSideBloom, Broadcast, Repartition, RepartitionBloom, Zigzag}
	for _, tr := range adaptTransports {
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%s/%s", tr.name, alg), func(t *testing.T) {
				// tCor=300 keeps T' large enough (~180 rows) that broadcast
				// is not the cheaper escape; the hot key dominates the build.
				res := runAdaptivePair(t, tr.newBus, hotKeys90, 2, 3, 600, 9000, 300, 400, alg)
				if alg == DBSideBloom || alg == Broadcast {
					if res.Switched {
						t.Fatalf("switched to %q on an algorithm without a shuffle", res.SwitchedTo)
					}
					return
				}
				if !res.Switched || res.SwitchedTo != "hybrid-shuffle" {
					t.Fatalf("Switched=%v to %q (%s), want hybrid-shuffle", res.Switched, res.SwitchedTo, res.SwitchReason)
				}
				if hot := res.Metrics[metrics.JENShuffleHotTuples]; hot == 0 {
					t.Error("hybrid switch scattered no hot tuples")
				}
			})
		}
	}
}

// TestSkewShuffleBalance is the load-balance guarantee: with ~90% of L' on
// one key, the plain agreed-hash partitioner overloads that key's home
// worker past 3× the mean, while the hybrid partitioner the adaptive layer
// escalates to holds every worker within 1.5× — with the same shuffled
// total and an identical query result. On uniform keys the adaptive layer
// decides to keep the plan and reproduces the plain receive vector exactly.
func TestSkewShuffleBalance(t *testing.T) {
	const dbW, jenW, tN, lN = 3, 6, 1500, 9000
	run := func(adaptive bool, keys func(*rand.Rand) int) (*Result, *metrics.Recorder) {
		f := buildSkewFixtureKeys(t, netsim.NewChanBus(256), dbW, jenW, tN, lN, adaptTestConfig(adaptive), keys)
		defer f.eng.Close()
		res, err := f.eng.Run(exampleQuery(t, f, 300, 400), RepartitionBloom)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, reference(t, f, 300, 400), RepartitionBloom)
		return res, f.eng.Recorder()
	}

	_, plainRec := run(false, hotKeys90)
	skewRes, skewRec := run(true, hotKeys90)

	if skewRes.SwitchedTo != "hybrid-shuffle" {
		t.Fatalf("SwitchedTo = %q (%s), want hybrid-shuffle", skewRes.SwitchedTo, skewRes.SwitchReason)
	}
	plainRatio := plainRec.BalanceRatio(metrics.JENRecvTuples)
	skewRatio := skewRec.BalanceRatio(metrics.JENRecvTuples)
	if plainRatio <= 3 {
		t.Errorf("plain partitioner balance ratio %.2f; fixture not skewed enough (want > 3)", plainRatio)
	}
	if skewRatio > 1.5 {
		t.Errorf("hybrid shuffle balance ratio %.2f, want ≤ 1.5", skewRatio)
	}
	if plainRec.Get(metrics.JENRecvTuples) != skewRec.Get(metrics.JENRecvTuples) {
		t.Errorf("total shuffled tuples changed: %d plain vs %d hybrid — routing must only move rows, not drop them",
			plainRec.Get(metrics.JENRecvTuples), skewRec.Get(metrics.JENRecvTuples))
	}
	if hot := skewRec.Get(metrics.JENShuffleHotTuples); hot < int64(lN)/4 {
		t.Errorf("only %d hot tuples scattered; the planted key holds most of L", hot)
	}

	// No hot key, nothing to re-route: the keep decision flushes the
	// buffered prefix through the agreed hash and must reproduce the plain
	// partitioner's receive vector exactly.
	_, uniformRec := run(false, uniformKeys)
	keepRes, keepRec := run(true, uniformKeys)
	if keepRes.Switched || keepRes.SwitchReason == "" {
		t.Fatalf("uniform keys: Switched=%v to %q (%q), want a recorded keep decision", keepRes.Switched, keepRes.SwitchedTo, keepRes.SwitchReason)
	}
	if !reflect.DeepEqual(keepRec.Vector(metrics.JENRecvTuples), uniformRec.Vector(metrics.JENRecvTuples)) {
		t.Errorf("keep decision changed the shuffle: recv %v vs plain %v",
			keepRec.Vector(metrics.JENRecvTuples), uniformRec.Vector(metrics.JENRecvTuples))
	}
	if hot := keepRec.Get(metrics.JENShuffleHotTuples); hot != 0 {
		t.Errorf("keep decision scattered %d hot tuples", hot)
	}
}
