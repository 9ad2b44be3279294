package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hybridwh/internal/costmodel"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
)

// blockingRun returns a Run function that signals started, then blocks
// until release closes or the context dies.
func blockingRun(started chan<- int64, release <-chan struct{}) func(context.Context, *mem.Budget) (any, error) {
	return func(ctx context.Context, bud *mem.Budget) (any, error) {
		if started != nil {
			started <- bud.Grant()
		}
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

func TestAdmissionHoldsGlobalBudget(t *testing.T) {
	rec := metrics.New()
	s, err := New(Config{
		MemBudgetBytes: 10 << 20, MaxConcurrent: 16,
		MinGrantBytes: 4 << 20, MaxGrantShare: 0.5, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Grants clamp to 4 MiB (min) .. 5 MiB (share); three 4 MiB queries
	// need 12 MiB — only two fit the 10 MiB budget at once.
	started := make(chan int64, 3)
	release := make(chan struct{})
	var procs []*Proc
	for i := 0; i < 3; i++ {
		p, err := s.Submit(context.Background(), Request{
			Label: "q", Lane: costmodel.LaneScan, FootprintBytes: 1,
			Run: blockingRun(started, release),
		})
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	<-started
	<-started
	select {
	case g := <-started:
		t.Fatalf("third query admitted (grant %d) beyond the budget", g)
	case <-time.After(50 * time.Millisecond):
	}
	if got := s.Governor().Reserved(); got != 8<<20 {
		t.Fatalf("reserved = %d, want 8 MiB", got)
	}
	close(release)
	for _, p := range procs {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Governor().Reserved(); got != 0 {
		t.Fatalf("reserved after completion = %d, want 0", got)
	}
	if peak := rec.GaugePeak(metrics.MemReservedBytes); peak > 10<<20 {
		t.Fatalf("reserved peak %d exceeded the budget", peak)
	}
	if got := rec.Get(metrics.SchedCompleted); got != 3 {
		t.Fatalf("completed = %d, want 3", got)
	}
}

func TestMaxConcurrentCap(t *testing.T) {
	s, err := New(Config{MemBudgetBytes: 1 << 30, MaxConcurrent: 2, MinGrantBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan int64, 4)
	release := make(chan struct{})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), Request{
			Lane: costmodel.LanePoint, Run: blockingRun(started, release),
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	select {
	case <-started:
		t.Fatal("third query admitted beyond MaxConcurrent=2")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
}

func TestPointBurstAntiStarvation(t *testing.T) {
	// One slot, so admission order is fully observable. A scan waits while
	// points keep arriving: after PointBurst=2 consecutive points, the scan
	// must be admitted even though more points are queued.
	s, err := New(Config{
		MemBudgetBytes: 1 << 30, MaxConcurrent: 1, MinGrantBytes: 1, PointBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var order []string
	record := func(name string, gate <-chan struct{}) func(context.Context, *mem.Budget) (any, error) {
		return func(ctx context.Context, bud *mem.Budget) (any, error) {
			<-gate
			order = append(order, name) // single-slot scheduler: no concurrent writers
			return nil, nil
		}
	}
	// Hold the slot while every contender queues, so admission choices are
	// made with all of them visible.
	gate := make(chan struct{})
	hold, err := s.Submit(context.Background(), Request{Lane: costmodel.LanePoint, Run: record("hold", gate)})
	if err != nil {
		t.Fatal(err)
	}
	var rest []*Proc
	for _, q := range []struct {
		name string
		lane costmodel.Lane
	}{{"scan1", costmodel.LaneScan}, {"p1", costmodel.LanePoint}, {"p2", costmodel.LanePoint}, {"p3", costmodel.LanePoint}} {
		done := make(chan struct{})
		close(done)
		p, err := s.Submit(context.Background(), Request{Lane: q.lane, Run: record(q.name, done)})
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, p)
	}
	close(gate)
	if _, err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rest {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// "hold" was admitted alone (streak 1); then p1 (streak 2) hits the
	// burst bound, so scan1 preempts p2/p3 in queue order.
	want := []string{"hold", "p1", "scan1", "p2", "p3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKillQueuedAndRunning(t *testing.T) {
	rec := metrics.New()
	s, err := New(Config{MemBudgetBytes: 1 << 30, MaxConcurrent: 1, MinGrantBytes: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	started := make(chan int64, 1)
	release := make(chan struct{})
	defer close(release)
	running, err := s.Submit(context.Background(), Request{Label: "running", Lane: costmodel.LanePoint, Run: blockingRun(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(context.Background(), Request{Label: "queued", Lane: costmodel.LanePoint, Run: blockingRun(nil, release)})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the queued query: it fails without ever running.
	if err := s.Kill(queued.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("queued kill error = %v, want ErrKilled", err)
	}

	// Kill the running query: its context cancels with ErrKilled as cause.
	if err := s.Kill(running.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := running.Wait(); !errors.Is(err, ErrKilled) {
		t.Fatalf("running kill error = %v, want ErrKilled", err)
	}
	if got := s.Governor().Reserved(); got != 0 {
		t.Fatalf("reserved after kills = %d, want 0 (grant leaked)", got)
	}
	if got := rec.Get(metrics.SchedKilled); got != 2 {
		t.Fatalf("killed counter = %d, want 2", got)
	}
	if err := s.Kill(9999); err == nil {
		t.Fatal("killing an unknown id should error")
	}
}

func TestProcessListAndRemove(t *testing.T) {
	s, err := New(Config{MemBudgetBytes: 1 << 30, MaxConcurrent: 1, MinGrantBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan int64, 1)
	release := make(chan struct{})
	p1, err := s.Submit(context.Background(), Request{Label: "first", Lane: costmodel.LanePoint, Run: blockingRun(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	p2, err := s.Submit(context.Background(), Request{Label: "second", Lane: costmodel.LaneScan, Run: blockingRun(nil, release)})
	if err != nil {
		t.Fatal(err)
	}
	procs := s.Processes()
	if len(procs) != 2 || procs[0].ID != p1.ID() || procs[1].ID != p2.ID() {
		t.Fatalf("process list = %+v", procs)
	}
	if procs[0].State != StateRunning || procs[1].State != StateQueued {
		t.Fatalf("states = %v/%v, want running/queued", procs[0].State, procs[1].State)
	}
	if procs[1].Lane != costmodel.LaneScan || procs[0].Label != "first" {
		t.Fatalf("process list lost metadata: %+v", procs)
	}
	if procs[0].Age < 0 {
		t.Fatalf("negative age %v", procs[0].Age)
	}
	if err := s.Remove(p1.ID()); err == nil {
		t.Fatal("removing a running query should error")
	}
	close(release)
	if _, err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(p1.ID()); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Processes()); got != 1 {
		t.Fatalf("process list after Remove has %d entries, want 1", got)
	}
}

func TestCloseFailsQueued(t *testing.T) {
	s, err := New(Config{MemBudgetBytes: 1 << 30, MaxConcurrent: 1, MinGrantBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan int64, 1)
	release := make(chan struct{})
	running, err := s.Submit(context.Background(), Request{Lane: costmodel.LanePoint, Run: blockingRun(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(context.Background(), Request{Lane: costmodel.LanePoint, Run: blockingRun(nil, release)})
	if err != nil {
		t.Fatal(err)
	}
	// Close fails the queued query before it waits on the running one, and
	// the running one is released only once that has happened: released
	// earlier, it could finish and the queued one be admitted and complete
	// before Close ever saw it queued.
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	if _, err := queued.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued query error = %v, want ErrClosed", err)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := running.Wait(); err != nil {
		t.Fatalf("running query failed on Close: %v", err)
	}
	if _, err := s.Submit(context.Background(), Request{Lane: costmodel.LanePoint, Run: blockingRun(nil, nil)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestBudgetReachesRun(t *testing.T) {
	s, err := New(Config{MemBudgetBytes: 64 << 20, MinGrantBytes: 1 << 20, MaxGrantShare: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sawGrant atomic.Int64
	res, err := s.Run(context.Background(), Request{
		Lane: costmodel.LaneScan, FootprintBytes: 1 << 30, // clamped to 16 MiB
		Run: func(ctx context.Context, bud *mem.Budget) (any, error) {
			sawGrant.Store(bud.Grant())
			if !bud.TryReserve(1 << 20) {
				return nil, errors.New("reserve inside grant refused")
			}
			bud.Release(1 << 20)
			return 42, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 42 {
		t.Fatalf("result = %v", res)
	}
	if sawGrant.Load() != 16<<20 {
		t.Fatalf("grant = %d, want 16 MiB (MaxGrantShare clamp)", sawGrant.Load())
	}
}
