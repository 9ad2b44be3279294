package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/format"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
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

	// Two rows buffer for "good" (below the flush threshold of 4)...
	for i := 0; i < 2; i++ {
		if err := b.send("good", wideRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	// ...then a full batch for "bad" flushes and fails.
	var sendErr error
	for i := 0; i < 4 && sendErr == nil; i++ {
		sendErr = b.send("bad", wideRow(100+i))
	}
	if sendErr == nil {
		t.Fatal("send to failing destination did not error")
	}
	if err := b.Close(); err == nil {
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

// TestBatchSendsMatchRowSends pins the wire-framing invariant: sendBatch and
// scatterBatch must produce the exact same message sequence (payload bytes,
// order, destinations) as per-row send over the same logical rows — that
// identity is what keeps the byte counters bit-identical to the seed.
func TestBatchSendsMatchRowSends(t *testing.T) {
	const size = 4
	rows := make([]types.Row, 11)
	for i := range rows {
		rows[i] = types.Row{types.Int32(int32(i % 3)), types.Int32(int32(i)), types.String(fmt.Sprintf("s%d", i))}
	}
	destOf := func(key int64) string { return fmt.Sprintf("d%d", key) }
	dests := []string{"d0", "d1", "d2"}

	rowBus := &recordBus{}
	rb := testEngine(rowBus, size).newBatcher(context.Background(), "src", "s", dests, "", "", 0)
	for _, r := range rows {
		if err := rb.send(destOf(r[0].Int()), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}

	// The same rows as two batches, scattered by the same key.
	batchBus := &recordBus{}
	bb := testEngine(batchBus, size).newBatcher(context.Background(), "src", "s", dests, "", "", 0)
	for lo := 0; lo < len(rows); lo += 6 {
		hi := lo + 6
		if hi > len(rows) {
			hi = len(rows)
		}
		sb := batch.New(3, hi-lo)
		for _, r := range rows[lo:hi] {
			sb.AppendRow(r)
		}
		if err := bb.scatterBatch(sb, nil, 0, destOf); err != nil {
			t.Fatal(err)
		}
	}
	if err := bb.Close(); err != nil {
		t.Fatal(err)
	}

	if len(rowBus.sent) != len(batchBus.sent) {
		t.Fatalf("message count %d vs %d", len(batchBus.sent), len(rowBus.sent))
	}
	for i := range rowBus.sent {
		want, got := rowBus.sent[i], batchBus.sent[i]
		if want.From != got.From || want.Type != got.Type {
			t.Fatalf("message %d: (%s,%v) vs (%s,%v)", i, got.From, got.Type, want.From, want.Type)
		}
		if !bytes.Equal(want.Payload, got.Payload) {
			t.Fatalf("message %d to %s: payload differs (%d vs %d bytes)", i, want.From, len(got.Payload), len(want.Payload))
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
	if err := b.sendBatch("d", sb, []int{2, 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
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

// TestRepartitionCountersMatchSeed pins the repartition family's counter
// snapshots to the seed's: the table below was captured from the seed's
// row-at-a-time pipeline on this fixture (3 DB × 5 JEN workers, 2000 × 6000
// rows, exampleQuery(300, 400), HWC), which the batch pipeline matched
// counter for counter before that second execution mode was deleted. The
// vectorized path must not move a single one; results are checked against
// the naive reference.
func TestRepartitionCountersMatchSeed(t *testing.T) {
	golden := map[Algorithm]map[string]int64{
		Repartition: {
			"agg.groups":       12,
			"db.filtered.rows": 613, "db.filtered.rows.max": 211,
			"db.scan.rows": 2000, "db.scan.rows.max": 682,
			"db.sent.bytes": 4308, "db.sent.bytes.max": 1483,
			"db.sent.tuples": 613, "db.sent.tuples.max": 211,
			"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
			"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
			"jen.recv.tuples": 2629, "jen.recv.tuples.max": 737,
			"jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387,
			"jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
			"jen.shuffle.bytes": 61884, "jen.shuffle.bytes.max": 20970,
			"jen.shuffle.tuples": 2629, "jen.shuffle.tuples.max": 892,
			"join.build.tuples": 2629, "join.build.tuples.max": 737,
			"join.output.tuples": 762,
			"join.probe.tuples":  613, "join.probe.tuples.max": 202,
		},
		RepartitionBloom: {
			"agg.groups":       12,
			"bloom.build.keys": 61,
			"bloom.bytes":      10320,
			"db.filtered.rows": 613, "db.filtered.rows.max": 211,
			"db.index.rows": 613, "db.index.rows.max": 211,
			"db.scan.rows": 2000, "db.scan.rows.max": 682,
			"db.sent.bytes": 4308, "db.sent.bytes.max": 1483,
			"db.sent.tuples": 613, "db.sent.tuples.max": 211,
			"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
			"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
			"jen.recv.tuples": 1205, "jen.recv.tuples.max": 385,
			"jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387,
			"jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
			"jen.shuffle.bytes": 27741, "jen.shuffle.bytes.max": 10015,
			"jen.shuffle.tuples": 1205, "jen.shuffle.tuples.max": 435,
			"join.build.tuples": 1205, "join.build.tuples.max": 385,
			"join.output.tuples": 762,
			"join.probe.tuples":  613, "join.probe.tuples.max": 202,
		},
		Zigzag: {
			"agg.groups":        12,
			"bloom.build.keys":  61,
			"bloom.bytes":       26832,
			"db.bloom.filtered": 0,
			"db.filtered.rows":  613, "db.filtered.rows.max": 211,
			"db.index.rows": 613, "db.index.rows.max": 211,
			"db.scan.rows": 2000, "db.scan.rows.max": 682,
			"db.sent.bytes": 4308, "db.sent.bytes.max": 1483,
			"db.sent.tuples": 613, "db.sent.tuples.max": 211,
			"jen.morsel.tuples": 6000, "jen.morsel.tuples.max": 6000,
			"jen.process.tuples": 6000, "jen.process.tuples.max": 2000,
			"jen.recv.tuples": 1205, "jen.recv.tuples.max": 385,
			"jen.scan.bytes": 48972, "jen.scan.bytes.max": 16387,
			"jen.scan.rows": 6000, "jen.scan.rows.max": 2000,
			"jen.shuffle.bytes": 27741, "jen.shuffle.bytes.max": 10015,
			"jen.shuffle.tuples": 1205, "jen.shuffle.tuples.max": 435,
			"join.build.tuples": 1205, "join.build.tuples.max": 385,
			"join.output.tuples": 762,
			"join.probe.tuples":  613, "join.probe.tuples.max": 202,
		},
	}
	f := buildFixture(t, netsim.NewChanBus(256), 3, 5, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)
	for _, alg := range []Algorithm{Repartition, RepartitionBloom, Zigzag} {
		f.eng.Recorder().Reset()
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkResult(t, res, want, alg)
		if !reflect.DeepEqual(res.Metrics, golden[alg]) {
			for k, v := range golden[alg] {
				if res.Metrics[k] != v {
					t.Errorf("%v %s: got %d, seed %d", alg, k, res.Metrics[k], v)
				}
			}
			for k, v := range res.Metrics {
				if _, ok := golden[alg][k]; !ok {
					t.Errorf("%v %s: got %d, not in the seed snapshot", alg, k, v)
				}
			}
		}
	}
}
