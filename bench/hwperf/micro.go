package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hybridwh/internal/costmodel"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/sched"
)

// The contention micro-benchmarks: the scheduler, the memory budget and the
// metrics recorder driven by nproc goroutines and nothing else, so a change
// to their locking shows here before it shows in mixed_concurrent.

const microOps = 20_000

// hammer runs fn ops times from nproc goroutines and returns ns per op.
func hammer(ops int, fn func(g, i int)) float64 {
	n := runtime.GOMAXPROCS(0)
	per := ops / n
	t0 := time.Now()
	// fn cannot fail, so neither can the group.
	_ = par.ForEach(n, func(g int) error {
		for i := 0; i < per; i++ {
			fn(g, i)
		}
		return nil
	})
	return float64(time.Since(t0).Nanoseconds()) / float64(per*n)
}

func microContention(ctx context.Context, tr *tracer, r *runResult) error {
	root := tr.start(0, "micro", "micro")
	defer func() { tr.end(root, 0, 0, 0) }()

	id := tr.start(root, "micro", "metrics.add")
	rec := metrics.New()
	r.set("metrics.add_ns_per_op", hammer(microOps, func(g, _ int) { rec.AddAt(metrics.JENShuffleBytes, g, 1) }))
	tr.end(id, microOps, microOps, 0)

	id = tr.start(root, "micro", "mem.reserve")
	bud := mem.NewBudget(1 << 30)
	r.set("mem.reserve_ns_per_op", hammer(microOps, func(int, int) {
		if bud.TryReserve(4096) {
			bud.Release(4096)
		}
	}))
	tr.end(id, microOps, microOps, 0)

	id = tr.start(root, "micro", "sched.submit")
	defer func() { tr.end(id, microOps/10, microOps/10, 0) }()
	s, err := sched.New(sched.Config{MemBudgetBytes: 64 << 20, MaxConcurrent: 4})
	if err != nil {
		return fmt.Errorf("hwperf: micro scheduler: %w", err)
	}
	noop := sched.Request{Label: "noop", Lane: costmodel.LanePoint, FootprintBytes: 1 << 20,
		Run: func(context.Context, *mem.Budget) (any, error) { return nil, nil }}
	ops := microOps / 10
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := s.Run(ctx, noop); err != nil {
			return fmt.Errorf("hwperf: micro submit: %w", err)
		}
	}
	r.set("sched.submit_ns_per_op", float64(time.Since(t0).Nanoseconds())/float64(ops))
	if err := s.Close(); err != nil {
		return fmt.Errorf("hwperf: micro scheduler close: %w", err)
	}
	return nil
}
