package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hybridwh/internal/cluster"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/netsim"
	"hybridwh/internal/types"
)

// The failure-injection matrix: every join algorithm, on both transports,
// must turn an injected mid-query fault — a dying JEN worker, a dying DB
// worker, or the caller canceling — into exactly one classified error at the
// facade, within a bounded wall-clock time and without leaking a single
// worker goroutine. This is the proof of the distributed abort protocol
// (MsgError broadcast + per-query context teardown).

// abortDeadline bounds every failure-path query; if the abort protocol
// deadlocks, this deadline fires instead and the errors.Is assertion flags
// the DeadlineExceeded as the wrong classification.
const abortTestDeadline = 30 * time.Second

// checkNoGoroutineLeak polls until the goroutine count returns to the
// pre-fixture baseline, dumping a full stack diff if workers are stuck.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n <= baseline {
		return
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutine leak: %d live, baseline %d; stacks:\n%s", n, baseline, buf)
}

// cancelAfterBus wraps a transport and fires cancel after n successful
// delegated sends — a deterministic mid-query trigger point for the
// caller-cancellation scenario (timers would race the query).
type cancelAfterBus struct {
	netsim.Bus
	remaining atomic.Int64
	cancel    context.CancelFunc
}

func (b *cancelAfterBus) Send(from, to string, m netsim.Msg) error {
	err := b.Bus.Send(from, to, m)
	if err == nil && b.remaining.Add(-1) == 0 {
		b.cancel()
	}
	return err
}

func TestInjectedFailuresAbortEveryAlgorithm(t *testing.T) {
	transports := []struct {
		name   string
		newBus func() netsim.Bus
	}{
		{"chan", func() netsim.Bus { return netsim.NewChanBus(64) }},
		{"tcp", func() netsim.Bus { return netsim.NewTCPBus(64) }},
	}
	scenarios := []struct {
		name string
		// kill, when set, names the endpoint killed after a few messages.
		kill string
		// cancelAfter, when >0, cancels the query context after that many
		// successful sends.
		cancelAfter int64
		want        error
	}{
		{name: "fail-jen-worker", kill: cluster.JENName(1), want: netsim.ErrEndpointDown},
		{name: "fail-db-worker", kill: cluster.DBName(1), want: netsim.ErrEndpointDown},
		{name: "caller-cancel", cancelAfter: 6, want: context.Canceled},
	}
	// threads > 1 re-runs the whole matrix with morsel workers live: an abort
	// must also drain the concurrent process goroutines and the parallel
	// probe, not just the single-threaded pipeline.
	for _, threads := range []int{1, 3} {
		for _, tr := range transports {
			for _, alg := range []Algorithm{DBSide, Broadcast, Repartition, Zigzag} {
				for _, sc := range scenarios {
					t.Run(fmt.Sprintf("threads=%d/%s/%s/%s", threads, tr.name, alg, sc.name), func(t *testing.T) {
						baseline := runtime.NumGoroutine()
						ctx, cancel := context.WithTimeout(context.Background(), abortTestDeadline)
						defer cancel()

						bus := tr.newBus()
						if sc.cancelAfter > 0 {
							qctx, qcancel := context.WithCancel(ctx)
							ctx = qctx
							w := &cancelAfterBus{Bus: bus, cancel: qcancel}
							w.remaining.Store(sc.cancelAfter)
							bus = w
						}
						f := buildFixture(t, bus, 2, 3, 600, 1500, format.HWCName)
						f.eng.cfg.WorkerThreads = threads
						if sc.kill != "" {
							// A handful of messages in either direction puts the
							// endpoint mid-stream for every algorithm (Bloom
							// exchange, shuffle, or result return).
							f.eng.Bus().(netsim.FaultInjector).KillEndpointAfter(sc.kill, 4)
						}

						q := exampleQuery(t, f, 300, 400)
						start := time.Now()
						_, err := f.eng.RunCtx(ctx, q, alg)
						elapsed := time.Since(start)
						if err == nil {
							t.Fatalf("%s: query succeeded despite injected failure", sc.name)
						}
						if !errors.Is(err, sc.want) {
							t.Fatalf("%s: err = %v, want errors.Is %v", sc.name, err, sc.want)
						}
						if elapsed >= abortTestDeadline {
							t.Fatalf("%s: abort took %v; protocol stalled until the deadline", sc.name, elapsed)
						}
						if err := f.eng.Close(); err != nil {
							t.Logf("engine close after abort: %v", err)
						}
						checkNoGoroutineLeak(t, baseline)
					})
				}
			}
		}
	}
}

// TestInjectedFailuresAbortMultiJoin is the failure-injection matrix for
// the N-way executor, whose streamed stages send from inside their shuffle
// receives: an all-repartition plan, a broadcast/repartition mix and an
// adaptive-gated plan, on both transports, with a JEN or DB endpoint killed
// after 2, 10, 40 or 150 messages (the Bloom exchange, the dimension
// shipment, the scan's shuffle and the later stages' streams) or the caller
// canceling. Each run ends with a classified error or — when the fault
// fires after the query's last message to that endpoint — the correct
// rows, within the deadline and without leaking a goroutine.
func TestInjectedFailuresAbortMultiJoin(t *testing.T) {
	transports := []struct {
		name   string
		newBus func() netsim.Bus
	}{
		{"chan", func() netsim.Bus { return netsim.NewChanBus(64) }},
		{"tcp", func() netsim.Bus { return netsim.NewTCPBus(64) }},
	}
	plans := []struct {
		name, pattern string
		adaptive      bool
	}{
		{"all-repartition", "RRR", false},
		{"mixed", "RBR", false},
		{"gated", "RRR", true},
	}
	type fault struct {
		name        string
		kill        string
		after       int64
		cancelAfter int64
		want        error
	}
	var faults []fault
	for _, after := range []int64{2, 10, 40, 150} {
		faults = append(faults,
			fault{name: fmt.Sprintf("fail-jen-after-%d", after), kill: cluster.JENName(1), after: after, want: netsim.ErrEndpointDown},
			fault{name: fmt.Sprintf("fail-db-after-%d", after), kill: cluster.DBName(1), after: after, want: netsim.ErrEndpointDown})
	}
	faults = append(faults, fault{name: "caller-cancel", cancelAfter: 40, want: context.Canceled})

	var want []types.Row
	for _, threads := range []int{1, 3} {
		for _, tr := range transports {
			for _, p := range plans {
				for _, fl := range faults {
					t.Run(fmt.Sprintf("threads=%d/%s/%s/%s", threads, tr.name, p.name, fl.name), func(t *testing.T) {
						baseline := runtime.NumGoroutine()
						ctx, cancel := context.WithTimeout(context.Background(), abortTestDeadline)
						defer cancel()

						bus := tr.newBus()
						if fl.cancelAfter > 0 {
							qctx, qcancel := context.WithCancel(ctx)
							ctx = qctx
							w := &cancelAfterBus{Bus: bus, cancel: qcancel}
							w.remaining.Store(fl.cancelAfter)
							bus = w
						}
						f := buildStarFixture(t, bus, 2, 3, smallStar(), Config{
							BatchRows: 16, WorkerThreads: threads, AdaptiveSwitch: p.adaptive,
						})
						f.env.Options.CascadeBloom = !p.adaptive
						if want == nil {
							want = f.multiReference(t, starFullSQL)
						}
						mq := f.multiPlan(t, starFullSQL)
						setEdgeAlgs(t, mq, p.pattern)
						if fl.kill != "" {
							f.eng.Bus().(netsim.FaultInjector).KillEndpointAfter(fl.kill, fl.after)
						}

						start := time.Now()
						res, err := f.eng.RunMultiCtx(ctx, mq)
						elapsed := time.Since(start)
						switch {
						case err == nil:
							assertRowsEqual(t, res.Rows, want)
						case !errors.Is(err, fl.want):
							t.Fatalf("err = %v, want errors.Is %v", err, fl.want)
						}
						if elapsed >= abortTestDeadline {
							t.Fatalf("abort took %v; protocol stalled until the deadline", elapsed)
						}
						if err := f.eng.Close(); err != nil {
							t.Logf("engine close after abort: %v", err)
						}
						checkNoGoroutineLeak(t, baseline)
					})
				}
			}
		}
	}
}

// TestEngineSurvivesAbortedQuery: the engine must stay usable — a later
// query on the same engine (different endpoints than the dead one would
// need) still runs. We cancel rather than kill so every endpoint stays up.
func TestEngineSurvivesAbortedQuery(t *testing.T) {
	bus := netsim.NewChanBus(64)
	w := &cancelAfterBus{Bus: bus}
	w.remaining.Store(6)
	f := buildFixture(t, w, 2, 3, 600, 1500, format.HWCName)
	defer f.eng.Close()
	want := reference(t, f, 300, 400)
	q := exampleQuery(t, f, 300, 400)

	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	if _, err := f.eng.RunCtx(ctx, q, Zigzag); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: err = %v", err)
	}
	res, err := f.eng.Run(q, Zigzag)
	if err != nil {
		t.Fatalf("query after aborted query: %v", err)
	}
	checkResult(t, res, want, Zigzag)
}

// TestHDFSNodeDeathMidScan covers the DataNode fault paths end to end: with
// replication 2 a node dying mid-scan is survived via replica failover and
// the result is exact; with every node armed to die the scan runs out of
// replicas and ErrNoLiveReplica surfaces, classified, at the facade.
func TestHDFSNodeDeathMidScan(t *testing.T) {
	t.Run("survived-with-live-replica", func(t *testing.T) {
		f := buildFixture(t, netsim.NewChanBus(256), 2, 3, 800, 2000, format.HWCName)
		defer f.eng.Close()
		want := reference(t, f, 300, 400)
		q := exampleQuery(t, f, 300, 400)
		// Node 0 serves two more block reads, then dies mid-scan; every one
		// of its blocks has a second replica (Replication: 2 in the fixture).
		if err := f.dfs.FailNodeAfterReads(0, 2); err != nil {
			t.Fatal(err)
		}
		res, err := f.eng.Run(q, Repartition)
		if err != nil {
			t.Fatalf("scan with one dead node and live replicas: %v", err)
		}
		checkResult(t, res, want, Repartition)
	})

	t.Run("reported-without-live-replica", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		f := buildFixture(t, netsim.NewChanBus(256), 2, 3, 800, 2000, format.HWCName)
		q := exampleQuery(t, f, 300, 400)
		// Every node dies after serving one block read: the scans' later
		// blocks have no live replica anywhere.
		for n := 0; n < f.dfs.NumDataNodes(); n++ {
			if err := f.dfs.FailNodeAfterReads(n, 1); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), abortTestDeadline)
		defer cancel()
		_, err := f.eng.RunCtx(ctx, q, Repartition)
		if err == nil {
			t.Fatal("scan with all replicas dead succeeded")
		}
		if !errors.Is(err, hdfs.ErrNoLiveReplica) {
			t.Fatalf("err = %v, want errors.Is hdfs.ErrNoLiveReplica", err)
		}
		if err := f.eng.Close(); err != nil {
			t.Logf("engine close after abort: %v", err)
		}
		checkNoGoroutineLeak(t, baseline)
	})
}

// TestNoFailureCounterSnapshotStable guards the PR's core invariant: the
// abort machinery must not move a single counter on the no-failure path.
// Two identically-seeded engines run the full algorithm sweep (all eight
// algorithms plus the broadcast-relay variant, 9 runs each, 18 in total) and
// every per-run counter snapshot — recorder and bus byte/message counters —
// must be bit-identical between the two sweeps.
func TestNoFailureCounterSnapshotStable(t *testing.T) {
	type snap struct {
		Rec  map[string]int64
		Bus  map[string]int64
		Rows int
	}
	classes := []cluster.LinkClass{cluster.IntraDB, cluster.IntraHDFS, cluster.Cross}
	sweep := func() []snap {
		f := buildFixture(t, netsim.NewChanBus(256), 2, 3, 800, 2000, format.HWCName)
		defer f.eng.Close()
		q := exampleQuery(t, f, 300, 400)
		var out []snap
		run := func(alg Algorithm) {
			f.eng.Recorder().Reset()
			res, err := f.eng.Run(q, alg)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			busSnap := map[string]int64{}
			for _, cl := range classes {
				busSnap["bytes."+cl.String()] = f.eng.Bus().Counters().Bytes(cl)
				busSnap["msgs."+cl.String()] = f.eng.Bus().Counters().Messages(cl)
			}
			out = append(out, snap{Rec: res.Metrics, Bus: busSnap, Rows: len(res.Rows)})
		}
		for _, alg := range Algorithms() {
			run(alg)
		}
		f.eng.cfg.BroadcastRelay = true
		run(Broadcast)
		return out
	}
	first, second := sweep(), sweep()
	if len(first) != 9 || len(second) != 9 {
		t.Fatalf("sweep sizes %d/%d, want 9 runs each", len(first), len(second))
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("run %d: counter snapshots differ between identically-seeded sweeps", i)
			for k, v := range second[i].Rec {
				if first[i].Rec[k] != v {
					t.Errorf("run %d recorder %s: %d vs %d", i, k, first[i].Rec[k], v)
				}
			}
			for k, v := range second[i].Bus {
				if first[i].Bus[k] != v {
					t.Errorf("run %d bus %s: %d vs %d", i, k, first[i].Bus[k], v)
				}
			}
		}
	}
}
