package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hybridwh/internal/analyzer"
	"hybridwh/internal/batch"
	"hybridwh/internal/cluster"
	"hybridwh/internal/datagen"
	"hybridwh/internal/edw"
	"hybridwh/internal/format"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/skew"
	"hybridwh/internal/types"
)

// recordBus records every Send and can be told to fail sends to one
// destination. It implements netsim.Bus for batcher-level tests that need
// no routing.
type recordBus struct {
	failDest string
	sent     []netsim.Envelope // From abused to carry the destination
}

func (b *recordBus) Register(name string) (<-chan netsim.Envelope, error) {
	return make(chan netsim.Envelope), nil
}

func (b *recordBus) Send(from, to string, m netsim.Msg) error {
	if to == b.failDest {
		return fmt.Errorf("recordBus: %s unreachable", to)
	}
	b.sent = append(b.sent, netsim.Envelope{From: to, Msg: m})
	return nil
}

func (b *recordBus) Counters() *netsim.Counters { return nil }
func (b *recordBus) Close() error               { return nil }

func testEngine(bus netsim.Bus, batchRows int) *Engine {
	return &Engine{bus: bus, rec: metrics.New(), cfg: Config{BatchRows: batchRows}}
}

func wideRow(i int) types.Row {
	return types.Row{types.Int32(int32(i)), types.String(fmt.Sprintf("v%d", i))}
}

// TestBatcherKeepsOtherBuffersOnSendError is the ISSUE's fix check: when a
// flush to one destination fails mid-send, the partial buffers of the other
// destinations must still be flushed (and EOS'd) by Close, not dropped.
func TestBatcherKeepsOtherBuffersOnSendError(t *testing.T) {
	bus := &recordBus{failDest: "bad"}
	e := testEngine(bus, 4)
	b := e.newBatcher(context.Background(), "src", "s", []string{"good", "bad"}, "", "", 0)
	// Keys below 100 route to "good" (dests[0]), the rest to "bad".
	route := func(key int64) int {
		if key < 100 {
			return 0
		}
		return 1
	}

	// Two rows buffer for "good" (below the flush threshold of 4)...
	if err := b.scatterBatch(rowsBatch(wideRow(0), wideRow(1)), nil, 0, nil, route); err != nil {
		t.Fatal(err)
	}
	// ...then a full batch for "bad" flushes and fails.
	if err := b.scatterBatch(rowsBatch(wideRow(100), wideRow(101), wideRow(102), wideRow(103)), nil, 0, nil, route); err == nil {
		t.Fatal("send to failing destination did not error")
	}
	if err := b.CloseWith(nil); err == nil {
		t.Fatal("Close must surface the EOS failure to the bad destination")
	}

	var goodRows []types.Row
	eosSeen := false
	for _, env := range bus.sent {
		if env.From != "good" {
			t.Fatalf("message leaked to %s after its send failed", env.From)
		}
		switch env.Type {
		case netsim.MsgRows:
			rows, err := types.DecodeRows(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			goodRows = append(goodRows, rows...)
		case netsim.MsgEOS:
			eosSeen = true
		}
	}
	if len(goodRows) != 2 {
		t.Fatalf("good destination received %d rows, want its 2 buffered rows", len(goodRows))
	}
	for i, r := range goodRows {
		if !reflect.DeepEqual(r, wideRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, r, wideRow(i))
		}
	}
	if !eosSeen {
		t.Fatal("good destination never received EOS")
	}
}

// TestBatchSendsMatchRowSends pins the wire-framing invariant: scatterBatch
// must produce the exact message sequence (payload bytes, order,
// destinations) of the seed's row-at-a-time batcher over the same logical
// rows — modelled here as per-destination row buffers framed with
// types.EncodeRows and flushed at exactly size rows — whatever the input
// batch boundaries. That identity is what keeps the byte counters
// bit-identical to the seed. Hot rows (the hybrid replication) go to every
// destination, in destination order, as one row each.
func TestBatchSendsMatchRowSends(t *testing.T) {
	const size = 4
	rows := make([]types.Row, 11)
	for i := range rows {
		rows[i] = types.Row{types.Int32(int32(i % 3)), types.Int32(int32(i)), types.String(fmt.Sprintf("s%d", i))}
	}
	destOf := func(key int64) string { return fmt.Sprintf("d%d", key) }
	dests := []string{"d0", "d1", "d2"}

	for _, hot := range []*skew.HotSet{nil, skew.NewHotSet([]int64{1})} {
		// The model: the seed's row batcher.
		var want []netsim.Envelope
		pending := map[string][]types.Row{}
		emit := func(d string) {
			if len(pending[d]) > 0 {
				want = append(want, netsim.Envelope{From: d, Msg: netsim.Msg{Type: netsim.MsgRows, Stream: "s", Payload: types.EncodeRows(pending[d])}})
				pending[d] = nil
			}
		}
		for _, r := range rows {
			to := []string{destOf(r[0].Int())}
			if hot.Contains(r[0].Int()) {
				to = dests
			}
			for _, d := range to {
				if pending[d] = append(pending[d], r); len(pending[d]) == size {
					emit(d)
				}
			}
		}
		for _, d := range dests {
			emit(d)
		}
		for _, d := range dests {
			want = append(want, netsim.Envelope{From: d, Msg: netsim.Msg{Type: netsim.MsgEOS, Stream: "s"}})
		}

		// The same rows as two batches, scattered by the same key.
		bus := &recordBus{}
		bb := testEngine(bus, size).newBatcher(context.Background(), "src", "s", dests, "", "", 0)
		for lo := 0; lo < len(rows); lo += 6 {
			route := func(key int64) int { return int(key) } // dests[k] is destOf(k)
			if err := bb.scatterBatch(rowsBatch(rows[lo:min(lo+6, len(rows))]...), nil, 0, hot, route); err != nil {
				t.Fatal(err)
			}
		}
		if err := bb.CloseWith(nil); err != nil {
			t.Fatal(err)
		}

		if len(bus.sent) != len(want) {
			t.Fatalf("hot=%v: message count %d vs %d", hot.Keys(), len(bus.sent), len(want))
		}
		for i := range want {
			w, got := want[i], bus.sent[i]
			if w.From != got.From || w.Type != got.Type {
				t.Fatalf("hot=%v message %d: (%s,%v) vs (%s,%v)", hot.Keys(), i, got.From, got.Type, w.From, w.Type)
			}
			if !bytes.Equal(w.Payload, got.Payload) {
				t.Fatalf("hot=%v message %d to %s: payload differs (%d vs %d bytes)", hot.Keys(), i, w.From, len(got.Payload), len(w.Payload))
			}
		}
	}
}

// TestSendBatchHonorsSelectionAndProjection: deselected rows must not ship,
// and proj reorders columns like Row.Project.
func TestSendBatchHonorsSelectionAndProjection(t *testing.T) {
	bus := &recordBus{}
	e := testEngine(bus, 100)
	b := e.newBatcher(context.Background(), "src", "s", []string{"d"}, "", "", 0)
	sb := batch.New(3, 8)
	for i := 0; i < 8; i++ {
		sb.AppendRow(types.Row{types.Int32(int32(i)), types.String(fmt.Sprintf("s%d", i)), types.Int64(int64(100 + i))})
	}
	sb.SetSel([]int32{1, 4, 6})
	if err := b.sendBatch(sb, []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseWith(nil); err != nil {
		t.Fatal(err)
	}
	var got []types.Row
	for _, env := range bus.sent {
		if env.Type == netsim.MsgRows {
			rows, err := types.DecodeRows(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rows...)
		}
	}
	want := []types.Row{
		{types.Int64(101), types.Int32(1)},
		{types.Int64(104), types.Int32(4)},
		{types.Int64(106), types.Int32(6)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want %v", got, want)
	}
}

// counterSnap is one run's deterministic counters: the recorder snapshot
// plus the bus's bytes and messages per link class.
type counterSnap struct {
	Rec map[string]int64
	Bus map[string]int64
}

// busSnap reads the bus's per-link-class byte and message counters.
func busSnap(bus netsim.Bus) map[string]int64 {
	out := map[string]int64{}
	for _, cl := range []cluster.LinkClass{cluster.IntraDB, cluster.IntraHDFS, cluster.Cross} {
		out["bytes."+cl.String()] = bus.Counters().Bytes(cl)
		out["msgs."+cl.String()] = bus.Counters().Messages(cl)
	}
	return out
}

// resetCounters zeroes the recorder and the bus counters before a run.
func resetCounters(e *Engine) {
	e.Recorder().Reset()
	e.Bus().Counters().Reset()
}

// snowflakeStar is smallStar with the customer dimension snowflaked onto a
// region sub-dimension, for the N-way DB-side pre-join.
func snowflakeStar() datagen.Star {
	return datagen.Star{
		FactRows: 4000,
		Dims: []datagen.DimSpec{
			{Name: "customer", Rows: 300, Sub: &datagen.DimSpec{Name: "region", Rows: 20}},
			{Name: "store", Rows: 40},
		},
		Seed:   11,
		Groups: 5,
	}
}

const snowflakeTestSQL = `select f.grp, count(*), sum(f.measure), avg(f.measure)
	from fact f
	join customer c on f.fk_customer = c.key
	join region r on c.fk_region = r.key
	join store st on f.fk_store = st.key
	where r.attr < 600 and st.attr < 800 and c.attr < 900
	group by f.grp`

// counterRuns executes every golden case, checking each result against its
// reference, and returns the per-case counter snapshots.
//
// With adaptive false it skips the adaptive/* cases, whose scan gate
// observes whichever K scan batches reach its sketch first.
func counterRuns(t *testing.T, adaptive bool) map[string]counterSnap {
	out := map[string]counterSnap{}

	// The two-table sweep: 3 DB × 5 JEN workers, 2000 × 6000 rows,
	// exampleQuery(300, 400), HWC.
	f := buildFixture(t, netsim.NewChanBus(256), 3, 5, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	run := func(name string, q *plan.JoinQuery, alg Algorithm) *Result {
		resetCounters(f.eng)
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkResult(t, res, want, alg)
		out[name] = counterSnap{Rec: res.Metrics, Bus: busSnap(f.eng.Bus())}
		return res
	}
	for _, alg := range Algorithms() {
		run(alg.String(), q, alg)
	}
	ingested := *q
	ingested.HDFSCardHint = 1
	if res := run("db/broadcast-ingested", &ingested, DBSide); res.DBJoinStrategy != edw.BroadcastIngested {
		t.Fatalf("db/broadcast-ingested ran %v", res.DBJoinStrategy)
	}
	f.eng.cfg.BroadcastRelay = true
	run("broadcast-relay", q, Broadcast)
	f.eng.cfg.BroadcastRelay = false

	// RepartitionBoth needs m ≥ 4 and comparable T'/L' estimates.
	f4 := buildFixture(t, netsim.NewChanBus(256), 4, 5, 2000, 6000, format.HWCName)
	defer f4.eng.Close()
	q4 := *exampleQuery(t, f4, 300, 400)
	q4.HDFSCardHint = 600
	resetCounters(f4.eng)
	res, err := f4.eng.Run(&q4, DBSide)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, reference(t, f4, 300, 400), DBSide)
	if res.DBJoinStrategy != edw.RepartitionBoth {
		t.Fatalf("db/repartition-both ran %v", res.DBJoinStrategy)
	}
	out["db/repartition-both"] = counterSnap{Rec: res.Metrics, Bus: busSnap(f4.eng.Bus())}

	// Adaptive runs that switch mid-query, on the DB side's two T' paths
	// (plain repartition and zigzag's BF_H-pruned T').
	for _, c := range []struct {
		name string
		keys func(*rand.Rand) int
		lN   int
		alg  Algorithm
		to   string
	}{
		{"adaptive/broadcast", alignedKeys, 20000, Repartition, "broadcast"},
		{"adaptive/broadcast-zigzag", alignedKeys, 20000, Zigzag, "broadcast"},
		{"adaptive/hybrid", hotKeys90, 9000, Repartition, "hybrid-shuffle"},
		{"adaptive/hybrid-zigzag", hotKeys90, 9000, Zigzag, "hybrid-shuffle"},
	} {
		if !adaptive {
			break
		}
		af := buildSkewFixtureKeys(t, netsim.NewChanBus(256), 2, 3, 600, c.lN, adaptTestConfig(true), c.keys)
		res, err := af.eng.Run(exampleQuery(t, af, 300, 400), c.alg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkResult(t, res, reference(t, af, 300, 400), c.alg)
		if res.SwitchedTo != c.to {
			t.Fatalf("%s switched to %q, want %q", c.name, res.SwitchedTo, c.to)
		}
		out[c.name] = counterSnap{Rec: res.Metrics, Bus: busSnap(af.eng.Bus())}
		af.eng.Close()
	}

	// N-way: a mixed-algorithm star, the same star with adaptive edge
	// switching, and a snowflake with a DB-side pre-join.
	mixed := func(es analyzer.EdgeStats) (plan.EdgeAlg, string) {
		if es.DimRows > 50 {
			return plan.EdgeRepartition, "forced repartition"
		}
		return plan.EdgeBroadcast, "forced broadcast"
	}
	allRepart := func(analyzer.EdgeStats) (plan.EdgeAlg, string) {
		return plan.EdgeRepartition, "forced repartition"
	}
	for _, c := range []struct {
		name    string
		s       datagen.Star
		cfg     Config
		sql     string
		advise  func(analyzer.EdgeStats) (plan.EdgeAlg, string)
		cascade bool
	}{
		{"star", smallStar(), Config{}, starTestSQL, mixed, true},
		{"star/adaptive", smallStar(), Config{AdaptiveSwitch: true}, starTestSQL, allRepart, false},
		{"snowflake", snowflakeStar(), Config{}, snowflakeTestSQL, mixed, true},
	} {
		sf := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, c.s, c.cfg)
		sf.env.Advise = c.advise
		sf.env.Options.CascadeBloom = c.cascade
		mq := sf.multiPlan(t, c.sql)
		res, err := sf.eng.RunMulti(mq)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertRowsEqual(t, res.Rows, sf.multiReference(t, c.sql))
		out[c.name] = counterSnap{Rec: res.Metrics, Bus: busSnap(sf.eng.Bus())}
		sf.eng.Close()
	}
	return out
}

// TestRepartitionCountersMatchSeed pins counter snapshots to goldens
// captured before the engine changed under them. The repartition family's
// recorder counters come from the seed's row-at-a-time pipeline on the
// two-table fixture, which the batch pipeline matched counter for counter
// before that second execution mode was deleted; every other entry, and
// every bus counter, was captured from the parent of the change that made
// batches the engine's only data representation (PR 25): the remaining
// two-table algorithms and DB-side strategies, the broadcast relay, both
// adaptive switch regimes on both DB-side T' paths, and a star, an
// adaptive star and a snowflake RunMulti. No change may move a single one;
// results are checked against the reference evaluators.
func TestRepartitionCountersMatchSeed(t *testing.T) {
	golden := map[string]counterSnap{
		"adaptive/broadcast": {
			Rec: map[string]int64{
				"adapt.bytes": 1441, "adapt.decisions": 1, "adapt.obs.tprime.rows": 163,
				"adapt.switches": 1, "agg.groups": 12, "db.filtered.rows": 163,
				"db.filtered.rows.max": 90, "db.index.rows": 163, "db.index.rows.max": 90,
				"db.sent.bytes": 3435, "db.sent.bytes.max": 1896, "db.sent.tuples": 489,
				"db.sent.tuples.max": 270, "jen.morsel.tuples": 20000,
				"jen.morsel.tuples.max": 20000, "jen.process.tuples": 20000,
				"jen.process.tuples.max": 10763, "jen.recv.tuples": 0, "jen.recv.tuples.max": 0,
				"jen.scan.bytes": 149775, "jen.scan.bytes.max": 80325, "jen.scan.rows": 20000,
				"jen.scan.rows.max": 10763, "jen.shuffle.hot": 0, "jen.shuffle.hot.max": 0,
				"jen.shuffle.tuples": 0, "jen.shuffle.tuples.max": 0, "join.build.tuples": 489,
				"join.build.tuples.max": 163, "join.output.tuples": 3463,
				"join.probe.tuples": 20000, "join.probe.tuples.max": 10763,
			},
			Bus: map[string]int64{
				"bytes.cross": 4392, "bytes.intra-db": 0, "bytes.intra-hdfs": 1693,
				"msgs.cross": 24, "msgs.intra-db": 0, "msgs.intra-hdfs": 21,
			},
		},
		"adaptive/broadcast-zigzag": {
			Rec: map[string]int64{
				"adapt.bytes": 1399, "adapt.decisions": 1, "adapt.obs.tprime.rows": 163,
				"adapt.switches": 1, "agg.groups": 12, "bloom.build.keys": 54,
				"bloom.bytes": 16512, "db.bloom.filtered": 1, "db.filtered.rows": 163,
				"db.filtered.rows.max": 90, "db.index.rows": 326, "db.index.rows.max": 180,
				"db.sent.bytes": 3414, "db.sent.bytes.max": 1875, "db.sent.tuples": 486,
				"db.sent.tuples.max": 267, "jen.morsel.tuples": 20000,
				"jen.morsel.tuples.max": 20000, "jen.process.tuples": 20000,
				"jen.process.tuples.max": 10763, "jen.recv.tuples": 0, "jen.recv.tuples.max": 0,
				"jen.scan.bytes": 149775, "jen.scan.bytes.max": 80325, "jen.scan.rows": 20000,
				"jen.scan.rows.max": 10763, "jen.shuffle.hot": 0, "jen.shuffle.hot.max": 0,
				"jen.shuffle.tuples": 0, "jen.shuffle.tuples.max": 0, "join.build.tuples": 486,
				"join.build.tuples.max": 162, "join.output.tuples": 3463,
				"join.probe.tuples": 17665, "join.probe.tuples.max": 9522,
			},
			Bus: map[string]int64{
				"bytes.cross": 14764, "bytes.intra-db": 0, "bytes.intra-hdfs": 7900,
				"msgs.cross": 29, "msgs.intra-db": 0, "msgs.intra-hdfs": 24,
			},
		},
		"adaptive/hybrid": {
			Rec: map[string]int64{
				"adapt.bytes": 1274, "adapt.decisions": 1, "adapt.obs.tprime.rows": 163,
				"adapt.switches": 1, "agg.groups": 12, "db.filtered.rows": 163,
				"db.filtered.rows.max": 90, "db.index.rows": 163, "db.index.rows.max": 90,
				"db.sent.bytes": 1161, "db.sent.bytes.max": 633, "db.sent.tuples": 165,
				"db.sent.tuples.max": 90, "jen.morsel.tuples": 9000,
				"jen.morsel.tuples.max": 9000, "jen.process.tuples": 9000,
				"jen.process.tuples.max": 3952, "jen.recv.tuples": 8478,
				"jen.recv.tuples.max": 2842, "jen.scan.bytes": 54661,
				"jen.scan.bytes.max": 24261, "jen.scan.rows": 9000, "jen.scan.rows.max": 3952,
				"jen.shuffle.bytes": 195362, "jen.shuffle.bytes.max": 85561,
				"jen.shuffle.hot": 8059, "jen.shuffle.hot.max": 3523, "jen.shuffle.tuples": 8478,
				"jen.shuffle.tuples.max": 3713, "join.build.tuples": 8478,
				"join.build.tuples.max": 2842, "join.output.tuples": 567,
				"join.probe.tuples": 165, "join.probe.tuples.max": 66,
			},
			Bus: map[string]int64{
				"bytes.cross": 2010, "bytes.intra-db": 0, "bytes.intra-hdfs": 199317,
				"msgs.cross": 18, "msgs.intra-db": 0, "msgs.intra-hdfs": 159,
			},
		},
		"adaptive/hybrid-zigzag": {
			Rec: map[string]int64{
				"adapt.bytes": 1189, "adapt.decisions": 1, "adapt.obs.tprime.rows": 163,
				"adapt.switches": 1, "agg.groups": 12, "bloom.build.keys": 54,
				"bloom.bytes": 16512, "db.bloom.filtered": 10, "db.filtered.rows": 163,
				"db.filtered.rows.max": 90, "db.index.rows": 326, "db.index.rows.max": 180,
				"db.sent.bytes": 1091, "db.sent.bytes.max": 584, "db.sent.tuples": 155,
				"db.sent.tuples.max": 83, "jen.morsel.tuples": 9000,
				"jen.morsel.tuples.max": 9000, "jen.process.tuples": 9000,
				"jen.process.tuples.max": 3952, "jen.recv.tuples": 8216,
				"jen.recv.tuples.max": 2752, "jen.scan.bytes": 54661,
				"jen.scan.bytes.max": 24261, "jen.scan.rows": 9000, "jen.scan.rows.max": 3952,
				"jen.shuffle.bytes": 189100, "jen.shuffle.bytes.max": 82765,
				"jen.shuffle.hot": 8059, "jen.shuffle.hot.max": 3523, "jen.shuffle.tuples": 8216,
				"jen.shuffle.tuples.max": 3596, "join.build.tuples": 8216,
				"join.build.tuples.max": 2752, "join.output.tuples": 567,
				"join.probe.tuples": 155, "join.probe.tuples.max": 64,
			},
			Bus: map[string]int64{
				"bytes.cross": 12333, "bytes.intra-db": 0, "bytes.intra-hdfs": 199111,
				"msgs.cross": 23, "msgs.intra-db": 0, "msgs.intra-hdfs": 156,
			},
		},
		"broadcast": {
			Rec: map[string]int64{
				"agg.groups": 12, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.scan.rows": 2000, "db.scan.rows.max": 682, "db.sent.bytes": 21515,
				"db.sent.bytes.max": 7405, "db.sent.tuples": 613, "db.sent.tuples.max": 211,
				"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
				"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
				"jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387, "jen.scan.rows": 6000,
				"jen.scan.rows.max": 2000, "join.build.tuples": 3065,
				"join.build.tuples.max": 613, "join.output.tuples": 762,
				"join.probe.tuples": 2629, "join.probe.tuples.max": 892,
			},
			Bus: map[string]int64{
				"bytes.cross": 22914, "bytes.intra-db": 0, "bytes.intra-hdfs": 399,
				"msgs.cross": 77, "msgs.intra-db": 0, "msgs.intra-hdfs": 8,
			},
		},
		"broadcast-relay": {
			Rec: map[string]int64{
				"agg.groups": 12, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.scan.rows": 2000, "db.scan.rows.max": 682, "db.sent.bytes": 4303,
				"db.sent.bytes.max": 1481, "db.sent.tuples": 613, "db.sent.tuples.max": 211,
				"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
				"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
				"jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387, "jen.scan.rows": 6000,
				"jen.scan.rows.max": 2000, "jen.shuffle.bytes": 17212,
				"jen.shuffle.bytes.max": 5924, "jen.shuffle.tuples": 2452,
				"jen.shuffle.tuples.max": 844, "join.build.tuples": 3065,
				"join.build.tuples.max": 613, "join.output.tuples": 762,
				"join.probe.tuples": 2629, "join.probe.tuples.max": 892,
			},
			// The relay is the fixture engine's eleventh query: its stream
			// prefix q11/ was captured at four bytes, and the bus now counts
			// every query prefix as three (netsim.streamSize), so each class
			// is one byte per message below the capture (4699-17, 18775-76).
			Bus: map[string]int64{
				"bytes.cross": 4682, "bytes.intra-db": 0, "bytes.intra-hdfs": 18699,
				"msgs.cross": 17, "msgs.intra-db": 0, "msgs.intra-hdfs": 76,
			},
		},
		"db": {
			Rec: map[string]int64{
				"agg.groups": 12, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.ingest.tuples": 2629, "db.ingest.tuples.max": 1765,
				"db.reshuffle.bytes": 12909, "db.reshuffle.bytes.max": 4443,
				"db.reshuffle.tuples": 1839, "db.reshuffle.tuples.max": 633,
				"db.scan.rows": 2000, "db.scan.rows.max": 682, "hdfs.sent.bytes": 61877,
				"hdfs.sent.bytes.max": 20967, "hdfs.sent.tuples": 2629,
				"hdfs.sent.tuples.max": 892, "jen.morsel.tuples": 6000,
				"jen.morsel.tuples.max": 6000, "jen.process.tuples": 6000,
				"jen.process.tuples.max": 2000, "jen.scan.bytes": 48972,
				"jen.scan.bytes.max": 16387, "jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
				"join.build.tuples": 1839, "join.build.tuples.max": 613,
				"join.output.tuples": 762, "join.probe.tuples": 2629,
				"join.probe.tuples.max": 1765,
			},
			Bus: map[string]int64{
				"bytes.cross": 62676, "bytes.intra-db": 13979, "bytes.intra-hdfs": 0,
				"msgs.cross": 47, "msgs.intra-db": 50, "msgs.intra-hdfs": 0,
			},
		},
		"db(BF)": {
			Rec: map[string]int64{
				"agg.groups": 12, "bloom.build.keys": 61, "bloom.bytes": 10320,
				"db.filtered.rows": 613, "db.filtered.rows.max": 211, "db.index.rows": 613,
				"db.index.rows.max": 211, "db.ingest.tuples": 1205, "db.ingest.tuples.max": 824,
				"db.reshuffle.bytes": 12909, "db.reshuffle.bytes.max": 4443,
				"db.reshuffle.tuples": 1839, "db.reshuffle.tuples.max": 633,
				"db.scan.rows": 2000, "db.scan.rows.max": 682, "hdfs.sent.bytes": 27735,
				"hdfs.sent.bytes.max": 10012, "hdfs.sent.tuples": 1205,
				"hdfs.sent.tuples.max": 435, "jen.morsel.tuples": 6000,
				"jen.morsel.tuples.max": 6000, "jen.process.tuples": 6000,
				"jen.process.tuples.max": 2000, "jen.scan.bytes": 48972,
				"jen.scan.bytes.max": 16387, "jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
				"join.build.tuples": 1839, "join.build.tuples.max": 613,
				"join.output.tuples": 762, "join.probe.tuples": 1205,
				"join.probe.tuples.max": 824,
			},
			Bus: map[string]int64{
				"bytes.cross": 38555, "bytes.intra-db": 13979, "bytes.intra-hdfs": 0,
				"msgs.cross": 30, "msgs.intra-db": 50, "msgs.intra-hdfs": 0,
			},
		},
		"db/broadcast-ingested": {
			Rec: map[string]int64{
				"agg.groups": 12, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.ingest.bytes": 185631, "db.ingest.bytes.max": 124566,
				"db.ingest.tuples": 2629, "db.ingest.tuples.max": 1765, "db.scan.rows": 2000,
				"db.scan.rows.max": 682, "hdfs.sent.bytes": 61877, "hdfs.sent.bytes.max": 20967,
				"hdfs.sent.tuples": 2629, "hdfs.sent.tuples.max": 892, "jen.morsel.tuples": 6000,
				"jen.morsel.tuples.max": 6000, "jen.process.tuples": 6000,
				"jen.process.tuples.max": 2000, "jen.scan.bytes": 48972,
				"jen.scan.bytes.max": 16387, "jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
				"join.build.tuples": 613, "join.build.tuples.max": 211,
				"join.output.tuples": 762, "join.probe.tuples": 7887,
				"join.probe.tuples.max": 2629,
			},
			Bus: map[string]int64{
				"bytes.cross": 62676, "bytes.intra-db": 188424, "bytes.intra-hdfs": 0,
				"msgs.cross": 47, "msgs.intra-db": 141, "msgs.intra-hdfs": 0,
			},
		},
		"db/repartition-both": {
			Rec: map[string]int64{
				"agg.groups": 12, "db.filtered.rows": 613, "db.filtered.rows.max": 157,
				"db.ingest.bytes": 61880, "db.ingest.bytes.max": 41524, "db.ingest.tuples": 2629,
				"db.ingest.tuples.max": 1765, "db.reshuffle.bytes": 4307,
				"db.reshuffle.bytes.max": 1103, "db.reshuffle.tuples": 613,
				"db.reshuffle.tuples.max": 157, "db.scan.rows": 2000, "db.scan.rows.max": 511,
				"hdfs.sent.bytes": 61877, "hdfs.sent.bytes.max": 20967, "hdfs.sent.tuples": 2629,
				"hdfs.sent.tuples.max": 892, "jen.morsel.tuples": 6000,
				"jen.morsel.tuples.max": 6000, "jen.process.tuples": 6000,
				"jen.process.tuples.max": 2000, "jen.scan.bytes": 48972,
				"jen.scan.bytes.max": 16387, "jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
				"join.build.tuples": 613, "join.build.tuples.max": 178,
				"join.output.tuples": 762, "join.probe.tuples": 2629,
				"join.probe.tuples.max": 724,
			},
			Bus: map[string]int64{
				"bytes.cross": 62676, "bytes.intra-db": 68345, "bytes.intra-hdfs": 0,
				"msgs.cross": 47, "msgs.intra-db": 101, "msgs.intra-hdfs": 0,
			},
		},
		"repartition": {
			Rec: map[string]int64{
				"agg.groups": 12, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.scan.rows": 2000, "db.scan.rows.max": 682, "db.sent.bytes": 4308,
				"db.sent.bytes.max": 1483, "db.sent.tuples": 613, "db.sent.tuples.max": 211,
				"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
				"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
				"jen.recv.tuples": 2629, "jen.recv.tuples.max": 737, "jen.scan.bytes": 48972,
				"jen.scan.bytes.max": 16387, "jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
				"jen.shuffle.bytes": 61884, "jen.shuffle.bytes.max": 20970,
				"jen.shuffle.tuples": 2629, "jen.shuffle.tuples.max": 892,
				"join.build.tuples": 2629, "join.build.tuples.max": 737,
				"join.output.tuples": 762, "join.probe.tuples": 613,
				"join.probe.tuples.max": 202,
			},
			Bus: map[string]int64{
				"bytes.cross": 4976, "bytes.intra-db": 0, "bytes.intra-hdfs": 63821,
				"msgs.cross": 34, "msgs.intra-db": 0, "msgs.intra-hdfs": 84,
			},
		},
		"repartition(BF)": {
			Rec: map[string]int64{
				"agg.groups": 12, "bloom.build.keys": 61, "bloom.bytes": 10320,
				"db.filtered.rows": 613, "db.filtered.rows.max": 211, "db.index.rows": 613,
				"db.index.rows.max": 211, "db.scan.rows": 2000, "db.scan.rows.max": 682,
				"db.sent.bytes": 4308, "db.sent.bytes.max": 1483, "db.sent.tuples": 613,
				"db.sent.tuples.max": 211, "jen.morsel.tuples": 6000,
				"jen.morsel.tuples.max": 6000, "jen.process.tuples": 6000,
				"jen.process.tuples.max": 2000, "jen.recv.tuples": 1205,
				"jen.recv.tuples.max": 385, "jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387,
				"jen.scan.rows": 6000, "jen.scan.rows.max": 2000, "jen.shuffle.bytes": 27741,
				"jen.shuffle.bytes.max": 10015, "jen.shuffle.tuples": 1205,
				"jen.shuffle.tuples.max": 435, "join.build.tuples": 1205,
				"join.build.tuples.max": 385, "join.output.tuples": 762,
				"join.probe.tuples": 613, "join.probe.tuples.max": 202,
			},
			Bus: map[string]int64{
				"bytes.cross": 15371, "bytes.intra-db": 0, "bytes.intra-hdfs": 29264,
				"msgs.cross": 39, "msgs.intra-db": 0, "msgs.intra-hdfs": 61,
			},
		},
		"semijoin": {
			Rec: map[string]int64{
				"agg.groups": 12, "bloom.bytes": 684, "db.filtered.rows": 613,
				"db.filtered.rows.max": 211, "db.index.rows": 613, "db.index.rows.max": 211,
				"db.scan.rows": 2000, "db.scan.rows.max": 682, "db.sent.bytes": 4308,
				"db.sent.bytes.max": 1483, "db.sent.tuples": 613, "db.sent.tuples.max": 211,
				"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
				"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
				"jen.recv.tuples": 1205, "jen.recv.tuples.max": 385, "jen.scan.bytes": 48972,
				"jen.scan.bytes.max": 16387, "jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
				"jen.shuffle.bytes": 27741, "jen.shuffle.bytes.max": 10015,
				"jen.shuffle.tuples": 1205, "jen.shuffle.tuples.max": 435,
				"join.build.tuples": 1205, "join.build.tuples.max": 385,
				"join.output.tuples": 762, "join.probe.tuples": 613,
				"join.probe.tuples.max": 202,
			},
			Bus: map[string]int64{
				"bytes.cross": 5600, "bytes.intra-db": 0, "bytes.intra-hdfs": 29557,
				"msgs.cross": 42, "msgs.intra-db": 0, "msgs.intra-hdfs": 66,
			},
		},
		"snowflake": {
			Rec: map[string]int64{
				"agg.groups": 5, "bloom.build.keys": 237, "bloom.bytes": 16512,
				"db.dimjoin.tuples": 204, "db.filtered.rows": 317, "db.filtered.rows.max": 117,
				"db.scan.rows": 360, "db.scan.rows.max": 129, "db.sent.bytes": 6788,
				"db.sent.bytes.max": 2428, "db.sent.tuples": 944, "db.sent.tuples.max": 332,
				"jen.morsel.tuples": 4000, "jen.morsel.tuples.max": 4000,
				"jen.process.tuples": 4000, "jen.process.tuples.max": 1334,
				"jen.scan.bytes": 23528, "jen.scan.bytes.max": 7878, "jen.scan.rows": 4000,
				"jen.scan.rows.max": 1334, "join.build.tuples": 944,
				"join.build.tuples.max": 236, "join.output.tuples": 2229,
				"join.probe.tuples": 4458, "join.probe.tuples.max": 1524,
			},
			Bus: map[string]int64{
				"bytes.cross": 24395, "bytes.intra-db": 0, "bytes.intra-hdfs": 489,
				"msgs.cross": 66, "msgs.intra-db": 0, "msgs.intra-hdfs": 7,
			},
		},
		"star": {
			Rec: map[string]int64{
				"agg.groups": 6, "bloom.build.keys": 197, "bloom.bytes": 24768,
				"db.filtered.rows": 197, "db.filtered.rows.max": 74, "db.scan.rows": 440,
				"db.scan.rows.max": 159, "db.sent.bytes": 1525, "db.sent.bytes.max": 569,
				"db.sent.tuples": 437, "db.sent.tuples.max": 164, "jen.morsel.tuples": 5000,
				"jen.morsel.tuples.max": 5000, "jen.process.tuples": 5000,
				"jen.process.tuples.max": 1667, "jen.recv.tuples": 717,
				"jen.recv.tuples.max": 189, "jen.scan.bytes": 36506, "jen.scan.bytes.max": 12198,
				"jen.scan.rows": 5000, "jen.scan.rows.max": 1667, "jen.shuffle.bytes": 12802,
				"jen.shuffle.bytes.max": 4282, "jen.shuffle.tuples": 717,
				"jen.shuffle.tuples.max": 239, "join.build.tuples": 437,
				"join.build.tuples.max": 111, "join.output.tuples": 717,
				"join.probe.tuples": 2151, "join.probe.tuples.max": 667,
			},
			Bus: map[string]int64{
				"bytes.cross": 27634, "bytes.intra-db": 0, "bytes.intra-hdfs": 13717,
				"msgs.cross": 86, "msgs.intra-db": 0, "msgs.intra-hdfs": 37,
			},
		},
		"star/adaptive": {
			Rec: map[string]int64{
				"adapt.bytes": 176, "adapt.decisions": 2, "adapt.switches": 1, "agg.groups": 6,
				"db.filtered.rows": 197, "db.filtered.rows.max": 74, "db.scan.rows": 440,
				"db.scan.rows.max": 159, "db.sent.bytes": 1253, "db.sent.bytes.max": 461,
				"db.sent.tuples": 347, "db.sent.tuples.max": 128, "jen.morsel.tuples": 5000,
				"jen.morsel.tuples.max": 5000, "jen.process.tuples": 5000,
				"jen.process.tuples.max": 1667, "jen.recv.tuples": 6834,
				"jen.recv.tuples.max": 2275, "jen.scan.bytes": 36506,
				"jen.scan.bytes.max": 12198, "jen.scan.rows": 5000, "jen.scan.rows.max": 1667,
				"jen.shuffle.bytes": 99389, "jen.shuffle.bytes.max": 33086,
				"jen.shuffle.tuples": 6834, "jen.shuffle.tuples.max": 2277,
				"join.build.tuples": 347, "join.build.tuples.max": 91, "join.output.tuples": 717,
				"join.probe.tuples": 10583, "join.probe.tuples.max": 3302,
			},
			Bus: map[string]int64{
				"bytes.cross": 2534, "bytes.intra-db": 0, "bytes.intra-hdfs": 103009,
				"msgs.cross": 78, "msgs.intra-db": 0, "msgs.intra-hdfs": 176,
			},
		},
		"zigzag": {
			Rec: map[string]int64{
				"agg.groups": 12, "bloom.build.keys": 61, "bloom.bytes": 26832,
				"db.bloom.filtered": 0, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.index.rows": 613, "db.index.rows.max": 211, "db.scan.rows": 2000,
				"db.scan.rows.max": 682, "db.sent.bytes": 4308, "db.sent.bytes.max": 1483,
				"db.sent.tuples": 613, "db.sent.tuples.max": 211, "jen.morsel.tuples": 6000,
				"jen.morsel.tuples.max": 6000, "jen.process.tuples": 6000,
				"jen.process.tuples.max": 2000, "jen.recv.tuples": 1205,
				"jen.recv.tuples.max": 385, "jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387,
				"jen.scan.rows": 6000, "jen.scan.rows.max": 2000, "jen.shuffle.bytes": 27741,
				"jen.shuffle.bytes.max": 10015, "jen.shuffle.tuples": 1205,
				"jen.shuffle.tuples.max": 435, "join.build.tuples": 1205,
				"join.build.tuples.max": 385, "join.output.tuples": 762,
				"join.probe.tuples": 613, "join.probe.tuples.max": 202,
			},
			Bus: map[string]int64{
				"bytes.cross": 21605, "bytes.intra-db": 0, "bytes.intra-hdfs": 39679,
				"msgs.cross": 42, "msgs.intra-db": 0, "msgs.intra-hdfs": 66,
			},
		},
		"zigzag-db": {
			Rec: map[string]int64{
				"agg.groups": 12, "bloom.build.keys": 61, "bloom.bytes": 6192,
				"db.bloom.filtered": 0, "db.filtered.rows": 613, "db.filtered.rows.max": 211,
				"db.index.rows": 613, "db.index.rows.max": 211, "db.ingest.tuples": 1205,
				"db.ingest.tuples.max": 770, "db.reshuffle.bytes": 12909,
				"db.reshuffle.bytes.max": 4443, "db.reshuffle.tuples": 1839,
				"db.reshuffle.tuples.max": 633, "db.scan.rows": 2000, "db.scan.rows.max": 682,
				"hdfs.sent.bytes": 27735, "hdfs.sent.bytes.max": 10012, "hdfs.sent.tuples": 1205,
				"hdfs.sent.tuples.max": 435, "jen.morsel.tuples": 12000,
				"jen.morsel.tuples.max": 12000, "jen.process.tuples": 12000,
				"jen.process.tuples.max": 4000, "jen.scan.bytes": 97944,
				"jen.scan.bytes.max": 32774, "jen.scan.rows": 12000, "jen.scan.rows.max": 4000,
				"join.build.tuples": 1839, "join.build.tuples.max": 613,
				"join.output.tuples": 762, "join.probe.tuples": 1205,
				"join.probe.tuples.max": 770,
			},
			Bus: map[string]int64{
				"bytes.cross": 28160, "bytes.intra-db": 13979, "bytes.intra-hdfs": 0,
				"msgs.cross": 25, "msgs.intra-db": 50, "msgs.intra-hdfs": 0,
			},
		},
	}
	got := counterRuns(t, true)
	if len(got) != len(golden) {
		t.Errorf("%d golden cases, %d runs", len(golden), len(got))
	}
	diff := func(name, kind string, want, got map[string]int64) {
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s %s %s: got %d, golden %d", name, kind, k, got[k], v)
			}
		}
		for k, v := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s %s %s: got %d, not in the golden snapshot", name, kind, k, v)
			}
		}
	}
	for name, g := range golden {
		// The observed σ_L and hot share come from whichever K scan batches
		// reach the sketch first, which depends on disk-reader scheduling;
		// only their presence is pinned.
		if _, twoTableAdaptive := g.Rec[metrics.AdaptObsTPrimeRows]; twoTableAdaptive {
			for _, k := range []string{metrics.AdaptObsSigmaLPermille, metrics.AdaptObsHotPermille} {
				if _, ok := got[name].Rec[k]; !ok {
					t.Errorf("%s: %s missing", name, k)
				}
				delete(got[name].Rec, k)
			}
		}
		diff(name, "recorder", g.Rec, got[name].Rec)
		diff(name, "bus", g.Bus, got[name].Bus)
	}

	// The schedule guard: the 14 cases without a two-table scan gate run
	// again under GOMAXPROCS 8 — so at WorkerThreads 8, the engines'
	// default, with morsel threads, parallel probes and DB scans live — and
	// must equal the same goldens. The four adaptive/* cases stay at the
	// default until the scan gate observes a deterministic prefix: which K
	// batches reach its sketch depends on the schedule, and so do the
	// observation's bytes (ROADMAP item 25a).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	got = counterRuns(t, false)
	for name, g := range golden {
		if strings.HasPrefix(name, "adaptive/") {
			continue
		}
		if _, ok := got[name]; !ok {
			t.Errorf("%s: no run at GOMAXPROCS 8", name)
			continue
		}
		diff(name+" at GOMAXPROCS 8", "recorder", g.Rec, got[name].Rec)
		diff(name+" at GOMAXPROCS 8", "bus", g.Bus, got[name].Bus)
	}
}

// Bus bytes do not depend on a query's sequence number: twelve runs of one
// repartition query, and twelve of one N-way query, each on one engine,
// move identical bytes and messages — queries 9 and 10, whose stream
// prefixes q9/ and q10/ differ in length, included.
func TestBusCountersIndependentOfQueryNumber(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 3, 5, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	q := exampleQuery(t, f, 300, 400)
	sf := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, smallStar(), Config{})
	defer sf.eng.Close()
	mq := sf.multiPlan(t, starTestSQL)
	for _, c := range []struct {
		name string
		e    *Engine
		run  func() error
	}{
		{"repartition", f.eng, func() error { _, err := f.eng.Run(q, Repartition); return err }},
		{"n-way", sf.eng, func() error { _, err := sf.eng.RunMulti(mq); return err }},
	} {
		var first map[string]int64
		for i := 1; i <= 12; i++ {
			resetCounters(c.e)
			if err := c.run(); err != nil {
				t.Fatalf("%s run %d: %v", c.name, i, err)
			}
			got := busSnap(c.e.Bus())
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Errorf("%s run %d: bus %v, run 1 %v", c.name, i, got, first)
			}
		}
	}
}
