package core

import (
	"context"
	"testing"
	"time"

	"hybridwh/internal/cluster"
	"hybridwh/internal/format"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
)

// TestSpillingJoinAgrees runs every repartition-based algorithm under a
// query budget far below its HDFS-side build tables, so they spill, and
// checks each still produces the exact reference result.
func TestSpillingJoinAgrees(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 3000, 9000, format.HWCName)
	defer f.eng.Close()
	f.eng.cfg.SpillDir = t.TempDir()

	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	for _, alg := range []Algorithm{Repartition, RepartitionBloom, Zigzag} {
		f.eng.Recorder().Reset()
		res, err := f.eng.RunCtxOpts(context.Background(), q, alg, RunOpts{Budget: mem.NewBudget(8 << 10)})
		if err != nil {
			t.Fatalf("%v with spilling: %v", alg, err)
		}
		checkResult(t, res, want, alg)
		if res.Metrics[metrics.SpillEvictions] == 0 {
			t.Errorf("%v: the budget evicted no partition", alg)
		}
	}
}

// TestSemiJoinExactness: the exact semijoin must agree with the reference
// and, having no false positives, must ship no more DB tuples than zigzag.
func TestSemiJoinExactness(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 3000, 9000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 600, 400)
	q := exampleQuery(t, f, 600, 400)

	f.eng.Recorder().Reset()
	res, err := f.eng.Run(q, SemiJoin)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want, SemiJoin)
	semiSent := f.eng.Recorder().Get(metrics.DBSentTuples)
	semiShuffle := f.eng.Recorder().Get(metrics.JENShuffleTuples)

	f.eng.Recorder().Reset()
	if _, err := f.eng.Run(q, Zigzag); err != nil {
		t.Fatal(err)
	}
	zigSent := f.eng.Recorder().Get(metrics.DBSentTuples)
	zigShuffle := f.eng.Recorder().Get(metrics.JENShuffleTuples)

	if semiSent > zigSent {
		t.Errorf("semijoin sent %d DB tuples, zigzag %d — exact filtering cannot send more", semiSent, zigSent)
	}
	if semiShuffle > zigShuffle {
		t.Errorf("semijoin shuffled %d, zigzag %d", semiShuffle, zigShuffle)
	}
}

// TestKeySetRoundTrip covers the semijoin wire encoding.
func TestKeySetRoundTrip(t *testing.T) {
	s := jen.KeySet{}
	for _, k := range []int64{-500, 0, 1, 2, 1000, 1 << 40} {
		s.AddKey(k)
	}
	back, err := jen.UnmarshalKeySet(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(s) {
		t.Fatalf("%d keys, want %d", len(back), len(s))
	}
	for k := range s {
		if !back.TestKey(k) {
			t.Errorf("key %d lost", k)
		}
	}
	if back.TestKey(999999) {
		t.Error("phantom key")
	}
	// Corrupt payloads error out.
	if _, err := jen.UnmarshalKeySet(nil); err == nil {
		t.Error("nil payload: want error")
	}
	if _, err := jen.UnmarshalKeySet([]byte{5}); err == nil {
		t.Error("truncated payload: want error")
	}
	// Empty set round-trips.
	empty, err := jen.UnmarshalKeySet(jen.KeySet{}.Marshal())
	if err != nil || len(empty) != 0 {
		t.Errorf("empty set: %v, %v", empty, err)
	}
}

// TestDataNodeFailureSurvivedByReplication: with a DataNode down before
// planning, the coordinator assigns its blocks to replica holders and every
// algorithm still computes the exact result (replication factor 2).
func TestDataNodeFailureSurvivedByReplication(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 3, 5, 2000, 6000, format.TextName)
	defer f.eng.Close()
	if err := f.eng.JEN().HDFS().SetNodeDown(2, true); err != nil {
		t.Fatal(err)
	}
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	for _, alg := range []Algorithm{Zigzag, DBSideBloom, Broadcast} {
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v with node 2 down: %v", alg, err)
		}
		checkResult(t, res, want, alg)
	}
}

// TestSinglePipeVsGroupedTransfer contrasts the paper's parallel grouped
// DB↔JEN transfer with classic single-pipe federation (all JEN workers
// funnel into one DB worker): results agree, but the single pipe
// concentrates all ingest on one endpoint.
func TestSinglePipeVsGroupedTransfer(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)

	f.eng.Recorder().Reset()
	res, err := f.eng.Run(q, DBSide)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want, DBSide)
	grouped := f.eng.Recorder().Vector(metrics.DBIngestTuples)
	var groupedMax int64
	for _, v := range grouped {
		if v > groupedMax {
			groupedMax = v
		}
	}
	total := f.eng.Recorder().Get(metrics.DBIngestTuples)
	// Grouped transfer spreads ingest across workers: the max should be
	// well under the total.
	if groupedMax*2 > total && total > 100 {
		t.Errorf("grouped ingest skewed: max %d of total %d", groupedMax, total)
	}
}

// TestConcurrentQueries runs two different queries through the same engine
// simultaneously: per-query stream names keep the flows separate.
func TestConcurrentQueries(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	wantA := reference(t, f, 300, 400)
	wantB := reference(t, f, 600, 300)
	qA := exampleQuery(t, f, 300, 400)
	qB := exampleQuery(t, f, 600, 300)

	type out struct {
		res *Result
		err error
	}
	chA, chB := make(chan out, 1), make(chan out, 1)
	go func() {
		res, err := f.eng.Run(qA, Zigzag)
		chA <- out{res, err}
	}()
	go func() {
		res, err := f.eng.Run(qB, RepartitionBloom)
		chB <- out{res, err}
	}()
	a, b := <-chA, <-chB
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent runs: %v / %v", a.err, b.err)
	}
	checkResult(t, a.res, wantA, Zigzag)
	checkResult(t, b.res, wantB, RepartitionBloom)
}

// TestBroadcastRelayAgrees: the §4.3 relay transfer scheme must produce the
// same result while moving less data across the inter-cluster link.
func TestBroadcastRelayAgrees(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)

	res, err := f.eng.Run(q, Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want, Broadcast)
	directCross := f.eng.Bus().Counters().Bytes(cluster.Cross)

	f.eng.cfg.BroadcastRelay = true
	f.eng.Recorder().Reset()
	f.eng.Bus().Counters().Reset()
	res, err = f.eng.Run(q, Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want, Broadcast)
	relayCross := f.eng.Bus().Counters().Bytes(cluster.Cross)
	relayIntra := f.eng.Bus().Counters().Bytes(cluster.IntraHDFS)

	if !(relayCross < directCross/3) {
		t.Errorf("relay should slash cross-link bytes: %d vs %d", relayCross, directCross)
	}
	if relayIntra == 0 {
		t.Error("relay mode should move data intra-HDFS")
	}

	// One row per message through 4-slot inboxes: every JEN worker relays
	// from inside its receive while its peers do the same, the shape that
	// hangs unless that receive keeps draining its route (receive's relay,
	// fnSends).
	g := buildFixture(t, netsim.NewChanBus(4), 2, 3, 4000, 1500, format.HWCName)
	defer g.eng.Close()
	g.eng.cfg.BatchRows = 1
	g.eng.cfg.BroadcastRelay = true
	err = finishWithin(t, 30*time.Second, func() (err error) {
		res, err = g.eng.Run(exampleQuery(t, g, 1000, 1000), Broadcast)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, reference(t, g, 1000, 1000), Broadcast)

	// An N-way plan's broadcast edges relay too: every edge broadcast, and
	// a broadcast edge between two streamed repartition stages.
	for _, pattern := range []string{"BBB", "RBR"} {
		s := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, smallStar(), Config{})
		mq := s.multiPlan(t, starFullSQL)
		setEdgeAlgs(t, mq, pattern)
		direct, err := s.eng.RunMulti(mq)
		if err != nil {
			t.Fatal(err)
		}
		directCross, directIntra := s.eng.Bus().Counters().Bytes(cluster.Cross), s.eng.Bus().Counters().Bytes(cluster.IntraHDFS)
		s.eng.cfg.BroadcastRelay = true
		s.eng.Bus().Counters().Reset()
		var relayed *MultiResult
		err = finishWithin(t, 30*time.Second, func() (err error) {
			relayed, err = s.eng.RunMulti(mq)
			return err
		})
		if err != nil {
			t.Fatalf("%s relayed: %v", pattern, err)
		}
		assertRowsEqual(t, relayed.Rows, direct.Rows)
		if cross := s.eng.Bus().Counters().Bytes(cluster.Cross); !(cross < directCross) {
			t.Errorf("%s: relay should cut cross-link bytes: %d vs %d", pattern, cross, directCross)
		}
		if intra := s.eng.Bus().Counters().Bytes(cluster.IntraHDFS); !(intra > directIntra) {
			t.Errorf("%s: relay mode should move more data intra-HDFS: %d vs %d", pattern, intra, directIntra)
		}
		s.eng.Close()
	}
}
