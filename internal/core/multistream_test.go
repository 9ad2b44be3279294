package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hybridwh/internal/batch"
	"hybridwh/internal/netsim"
	"hybridwh/internal/par"
	"hybridwh/internal/plan"
)

// setEdgeAlgs forces the plan's per-edge algorithms from a pattern such as
// "RBR" (R repartition, B broadcast), one letter per edge in plan order.
func setEdgeAlgs(t testing.TB, mq *plan.MultiQuery, pattern string) {
	t.Helper()
	if len(pattern) != len(mq.Edges) {
		t.Fatalf("pattern %q for %d edges", pattern, len(mq.Edges))
	}
	for i, c := range pattern {
		mq.Edges[i].Algorithm = plan.EdgeRepartition
		if c == 'B' {
			mq.Edges[i].Algorithm = plan.EdgeBroadcast
		}
	}
}

// TestStreamedStagesMatchReference runs the streamed N-way stages over
// every edge-to-edge transition — repartition→repartition (the output
// scattered straight into the next shuffle), repartition→broadcast and
// broadcast→repartition (a held intermediate on one side), and gated edges
// (held for their observation, then kept or switched), and a band post-join
// across the last edge — at BatchRows 1, 7 and 512 and one or three worker
// threads, against the nested-loop oracle.
// BatchRows 1 ships one row per message, so every receiver's route backlog
// runs far past the bus inbox and route buffers while its own stage scatters
// into the next shuffle.
func TestStreamedStagesMatchReference(t *testing.T) {
	// starFullSQL has no dimension predicate, so every fact row survives
	// every edge and each stage shuffles all 5000 of them. Under it the
	// gated edges keep their repartition; under starTestSQL's selective
	// dimensions they switch to broadcast.
	plans := []struct {
		name, pattern, sql string
		cascade            bool
		gated              string // "": not gated; else "keep" or "switch"
	}{
		{"rep-rep-rep", "RRR", starFullSQL, true, ""},
		{"rep-bc-rep", "RBR", starFullSQL, true, ""},
		{"bc-rep-bc", "BRB", starFullSQL, false, ""},
		{"bc-rep-rep", "BRR", starFullSQL, true, ""},
		{"gated-keep", "RRR", starFullSQL, false, "keep"},
		{"gated-switch", "RRR", starTestSQL, false, "switch"},
		{"band-rep-rep-rep", "RRR", starBandSQL(""), true, ""},
	}
	want := map[string]string{}
	for _, rows := range []int{1, 7, 512} {
		for _, threads := range []int{1, 3} {
			f := buildStarFixture(t, netsim.NewChanBus(64), 3, 4, smallStar(), Config{
				BatchRows: rows, WorkerThreads: threads,
			})
			for _, p := range plans {
				if _, ok := want[p.sql]; !ok {
					want[p.sql] = fmt.Sprint(f.multiReference(t, p.sql))
				}
				ok := t.Run(fmt.Sprintf("%s/rows=%d/threads=%d", p.name, rows, threads), func(t *testing.T) {
					f.eng.cfg.AdaptiveSwitch = p.gated != ""
					f.env.Options.CascadeBloom = p.cascade
					mq := f.multiPlan(t, p.sql)
					setEdgeAlgs(t, mq, p.pattern)
					var res *MultiResult
					err := finishWithin(t, 30*time.Second, func() (err error) {
						res, err = f.eng.RunMulti(mq)
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprint(res.Rows); got != want[p.sql] {
						t.Fatalf("rows differ from the reference\ngot:  %v\nwant: %v", got, want[p.sql])
					}
					switched := false
					for _, ed := range res.Edges {
						switched = switched || ed.Switched
					}
					if p.gated != "" && switched != (p.gated == "switch") {
						t.Fatalf("gated edges: want %s, got %+v", p.gated, res.Edges)
					}
				})
				if !ok {
					t.FailNow() // a deadlocked fixture would stall every later case
				}
			}
			f.eng.Close()
		}
	}
}

// finishWithin runs fn and fails the test if fn has not returned after d. A
// receive that sends can deadlock inside bus sends, which no context
// reaches, so such a hang must fail the test instead of stalling the
// binary; the stuck goroutines are left behind.
func finishWithin(t testing.TB, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("did not finish within %v: deadlocked", d)
		return nil
	}
}

// TestStreamBatchesCallbackMaySend pins why a receive whose callback sends
// relays: the callback sends — here to its own endpoint — while a peer
// floods the stream. Once the peer has filled the route channel and the
// inbox and blocks, a receiver that stops draining its route while it sends
// blocks on its own full inbox, behind the peer, and its router blocks on
// the full route: receive with fnSends false hangs here.
func TestStreamBatchesCallbackMaySend(t *testing.T) {
	f := buildStarFixture(t, netsim.NewChanBus(4), 1, 2, smallStar(), Config{BatchRows: 1})
	defer f.eng.Close()
	e := f.eng
	const frames = 600 // well past the 256-frame route and the 4-frame inbox
	var sent atomic.Int64
	routed := make(chan struct{}) // the first frame reached the callback
	var g par.Group
	g.Go(func() error {
		b := e.newBatcher(context.Background(), jenName(1), "flood", []string{jenName(0)}, "", "", 1)
		for i := 0; i < frames; i++ {
			if i == 1 {
				<-routed // flood a routed stream, not the router's pending queue
			}
			sent.Add(1)
			if err := b.sendBatch(rowsBatch(wideRow(i)), nil); err != nil {
				return err
			}
		}
		return b.CloseWith(nil)
	})
	got := 0
	err := finishWithin(t, 20*time.Second, func() error {
		return e.receive(context.Background(), jenName(0), "flood", 1, true, func(b *batch.Batch) error {
			if got == 0 {
				close(routed)
				for sent.Load() < 256+4+4 {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(10 * time.Millisecond) // the peer is now blocked on the full inbox
			}
			got += b.Len()
			return e.bus.Send(jenName(0), jenName(0), netsim.Msg{Type: netsim.MsgRows, Stream: "echo", Payload: []byte{0}})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got != frames {
		t.Fatalf("received %d rows, want %d", got, frames)
	}
}
