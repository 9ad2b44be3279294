package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/format"
	"hybridwh/internal/netsim"
	"hybridwh/internal/types"
)

// allocCase is one row of an allocation ratchet: what one call of run
// allocates, bounded at the counts measured when the bound was committed.
type allocCase struct {
	name          string
	runs          int // measured calls, after one warm-up call
	run           func() error
	allocs, bytes uint64 // committed bounds per call
}

// checkAllocs fails a case that allocates more per call than its bound. A
// case under its bound passes with a note to lower the bound: a change that
// saves an allocation commits the saving. The cases are single calls into
// one layer, measured on one P, as every package's layer ratchet is: a call
// that migrates to another P misses its sync.Pool's per-P cache, one
// allocation in a few-allocation bound.
func checkAllocs(t *testing.T, cases []allocCase) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		allocs, bytes := measureAllocs(t, c.name, c.runs, c.run)
		switch {
		case allocs > c.allocs || bytes > c.bytes:
			t.Errorf("%s: %d allocations, %d B per call, over its bound of %d, %d B", c.name, allocs, bytes, c.allocs, c.bytes)
		case allocs < c.allocs || bytes < c.bytes:
			t.Logf("%s: %d allocations, %d B per call, under its bound of %d, %d B: lower the bound", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// measureAllocs is testing.AllocsPerRun with bytes as well: the mean
// allocations and bytes of runs calls of run after one warm-up call, with
// the collector off, at the GOMAXPROCS it is called with. A -race build
// skips the test: its sync.Pool drops items at random.
func measureAllocs(t *testing.T, name string, runs int, run func() error) (allocs, bytes uint64) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts move under the race detector")
			}
		}
	}
	defer runtime.GC() // the calls' garbage piles up uncollected
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	n := uint64(runs)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// discardBus drops every message: a batcher under it encodes and ships its
// frames, and no router goroutine allocates beside the measured call.
type discardBus struct{}

func (discardBus) Register(string) (<-chan netsim.Envelope, error) { return nil, nil }
func (discardBus) Send(string, string, netsim.Msg) error           { return nil }
func (discardBus) Counters() *netsim.Counters                      { return nil }
func (discardBus) Close() error                                    { return nil }

// TestCoreAllocations is the engine's per-layer allocation ratchet: the
// shuffle's scatter, the band probe and one streamed N-way stage allocate
// per frame and per output batch, never per row. 512-row input batches,
// 64-row frames to six workers.
func TestCoreAllocations(t *testing.T) {
	e := testEngine(discardBus{}, 64)
	workers := []string{"j0", "j1", "j2", "j3", "j4", "j5"}
	shuffle := func() *batcher {
		return e.newBatcher(context.Background(), "j0", "s", workers, "", "", 0)
	}
	in := batch.New(3, 512)
	for i := 0; i < 512; i++ {
		in.AppendRow(types.Row{types.Int64(int64(i % 256)), types.Int64(int64(i)), types.Date(int32(19000 + i%30))})
	}
	scatter := shuffle()

	// A streamed stage: the 256-key dimension is built, each shuffled batch
	// is probed as it arrives (every row finds one partner) and the joined
	// rows scatter by their dimension column into the next edge's shuffle.
	next := shuffle()
	stage := e.newJoinStage("", 0, joinSite{leftWidth: 3, probeLeft: true, key: 0, next: func(out *batch.Batch) error {
		return next.scatterBatch(out, nil, 4, nil, hashRoute(len(workers)))
	}})
	dim := batch.New(2, 256)
	for k := 0; k < 256; k++ {
		dim.AppendRow(types.Row{types.Int64(int64(k)), types.Int64(int64(k * 7))})
	}
	if err := stage.insert(dim); err != nil {
		t.Fatal(err)
	}
	if err := stage.seal(); err != nil {
		t.Fatal(err)
	}
	defer stage.close()

	cases := []allocCase{
		{name: "batcher.scatterBatch: 512 rows", runs: 100, allocs: 7, bytes: 5624,
			run: func() error { return scatter.scatterBatch(in, nil, 0, nil, hashRoute(len(workers))) }},
		{name: "streamed N-way stage: probe 512 rows, scatter the output", runs: 100, allocs: 9, bytes: 9200,
			run: func() error { return stage.probe(in, 0, nil) }},
	}
	// The band's probe term: the paper's days() evaluated once per probe row
	// and bucket borrows its argument slice from a pool rather than making
	// one per call (a per-node buffer would race, since parallel probe
	// threads share the expression tree).
	for _, probeLeft := range []bool{true, false} {
		c := (&Engine{cfg: Config{BatchRows: 8}}).newJoinStage("", 0, joinSite{pred: bandPosts(t, probeLeft)["days"], leftWidth: 3, probeLeft: probeLeft}).cmb
		if c.probeTerm == nil {
			t.Fatal("the days band was not recognised")
		}
		row := types.Row{types.Int64(1), types.Int64(2), types.Date(19000)}
		name := fmt.Sprintf("band probe term, probeLeft=%v", probeLeft)
		cases = append(cases, allocCase{name: name, runs: 1000, allocs: 0, bytes: 0, run: func() error {
			if _, _, ok := c.probeRange(row); !ok {
				t.Fatal("probeRange rejected a date")
			}
			return nil
		}})
	}
	checkAllocs(t, cases)
}

// TestQueryAllocations is the whole-query allocation ratchet: what one query
// of each paper algorithm allocates over 3000 T and 10000 L rows (4 DB and 6
// JEN workers), and one star whose three edges all repartition, so that
// every stage streams, in 8-row frames; all on the chan bus at
// WorkerThreads 1. The counts span every worker program, router and relay,
// so they move a little with the schedule: each bound is the count measured
// when it was committed plus 3 %. It runs at the test's GOMAXPROCS: every
// operator is sized by the engine's Config, not by the host, so the bounds
// hold at -cpu 1, 2 and 8 alike.
func TestQueryAllocations(t *testing.T) {
	f := buildFixture(t, netsim.NewChanBus(256), 4, 6, 3000, 10000, format.HWCName)
	defer f.eng.Close()
	q := exampleQuery(t, f, 300, 400)
	star := buildStarFixture(t, netsim.NewChanBus(256), 3, 4, smallStar(), Config{BatchRows: 8})
	defer star.eng.Close()
	mq := star.multiPlan(t, starFullSQL)
	setEdgeAlgs(t, mq, "RRR")

	alg := func(a Algorithm) func() error {
		return func() error { _, err := f.eng.Run(q, a); return err }
	}
	for _, c := range []allocCase{
		{name: "db", runs: 3, run: alg(DBSide), allocs: 13324, bytes: 3642220},
		{name: "db(BF)", runs: 3, run: alg(DBSideBloom), allocs: 8245, bytes: 3637556},
		{name: "broadcast", runs: 3, run: alg(Broadcast), allocs: 8860, bytes: 3294237},
		{name: "repartition", runs: 3, run: alg(Repartition), allocs: 13722, bytes: 4570876},
		{name: "repartition(BF)", runs: 3, run: alg(RepartitionBloom), allocs: 8785, bytes: 3869537},
		{name: "zigzag", runs: 3, run: alg(Zigzag), allocs: 8941, bytes: 3920617},
		{name: "star, every edge streamed", runs: 3, allocs: 7478, bytes: 5123922,
			run: func() error { _, err := star.eng.RunMulti(mq); return err }},
	} {
		allocs, bytes := measureAllocs(t, c.name, c.runs, c.run)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %d allocations, %d B per query, over its bound of %d, %d B", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}
