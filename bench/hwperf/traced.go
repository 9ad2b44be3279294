package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/expr"
	"hybridwh/internal/metrics"
	"hybridwh/internal/plan"
	"hybridwh/internal/sqlparse"
)

// runTraced produces the per-layer metrics and the span file of one
// workload: a short untraced loop for counts, query spans split at the
// public seams, the layer replay, and the contention micro-benchmarks.
func runTraced(ctx context.Context, wl workload, seed int64, seconds float64, sz sizing, outDir string) (*runResult, error) {
	r := newResult(wl, seed, true)
	for _, m := range perLayer {
		r.set(m.Name, 0) // a layer the workload does not exercise reads 0
	}
	in, advised, _, err := prepare(ctx, wl, seed, sz, 1, r)
	if err != nil {
		return nil, err
	}
	defer in.close() // nothing is written through the warehouse; its error cannot change the result

	// Counts and contention peaks come from the workload's own loop, run
	// untraced for a quarter of the measuring time (the grid needs two full
	// rounds for a median per cell).
	cycles := sz.Cycles
	if wl.grid && cycles == 0 {
		cycles = 2
	}
	before := in.w.Recorder().Snapshot()
	cross0, intra0, msgs0 := busTotals(in.w)
	samples, _, err := in.closedLoop(ctx, seconds/4, cycles)
	if err != nil {
		return nil, err
	}
	verify(samples, r)
	r.Samples = len(samples)
	if wl.grid {
		gridMetrics(samples, advised, r)
	}
	if wl.budget > 0 {
		// Under the scheduler neither the recorder nor the bus counters are
		// reset per query, so the loop's deltas are well defined.
		cross1, intra1, msgs1 := busTotals(in.w)
		n := float64(len(samples))
		r.set("netsim.bytes_cross_per_query", float64(cross1-cross0)/n)
		r.set("netsim.bytes_intra_per_query", float64(intra1-intra0)/n)
		r.set("netsim.msgs_per_query", float64(msgs1-msgs0)/n)
		in.loopCounts(len(samples), before, in.w.Recorder().Snapshot(), r)
	}

	tr := newTracer()
	if err := in.traceQueries(ctx, tr, sz.Traced, r); err != nil {
		return nil, err
	}
	sp, err := in.replaySpec()
	if err != nil {
		return nil, err
	}
	if err := replayLayers(ctx, in, sp, tr, r); err != nil {
		return nil, err
	}
	if err := microContention(ctx, tr, r); err != nil {
		return nil, err
	}
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted))
	if outDir != "" {
		if err := tr.write(filepath.Join(outDir, "trace_"+wl.def.Name+".json")); err != nil {
			return nil, err
		}
	}
	r.Notes["spans"] = fmt.Sprint(len(tr.snapshot()))
	return r, nil
}

// loopCounts fills the concurrent workload's per-query counts. Its queries
// share one set of counters while in flight, so the loop's deltas are
// divided by the queries completed; a serial workload reads one query's own
// Result.Counters instead (queryCounts), which repeat exactly.
func (in *instance) loopCounts(queries int, before, after map[string]int64, r *runResult) {
	n := float64(queries)
	delta := func(k string) float64 { return float64(after[k]-before[k]) / n }
	r.set("relop.spill_evictions_per_query", delta(metrics.SpillEvictions))
	r.set("core.shuffle_tuples_per_query", delta(metrics.JENShuffleTuples))
	r.set("core.join_output_tuples_per_query", delta(metrics.JoinOutputTuples))
	r.set("core.db_sent_tuples_per_query", delta(metrics.DBSentTuples))
	r.set("jen.scan_mb_per_query", delta(metrics.JENScanBytes)/1e6)
	r.set("sched.peak_running", float64(after[metrics.SchedRunning+".peak"]))
	r.set("mem.peak_reserved_mb", float64(after[metrics.MemReservedBytes+".peak"])/1e6)
	r.set("core.shuffle_balance", in.w.Recorder().BalanceRatio(metrics.JENRecvTuples))
	r.Notes["mem.budget_mb"] = fmt.Sprintf("%.3f", float64(in.w.Config().MemBudgetBytes)/1e6)
}

// queryCounts records the counts of one serial query.
func (in *instance) queryCounts(res *hybridwh.Result, r *runResult) {
	c := res.Counters
	cross, intra, msgs := busTotals(in.w)
	r.set("netsim.bytes_cross_per_query", float64(cross))
	r.set("netsim.bytes_intra_per_query", float64(intra))
	r.set("netsim.msgs_per_query", float64(msgs))
	r.set("core.shuffle_tuples_per_query", float64(c[metrics.JENShuffleTuples]))
	r.set("core.join_output_tuples_per_query", float64(c[metrics.JoinOutputTuples]))
	r.set("core.db_sent_tuples_per_query", float64(c[metrics.DBSentTuples]))
	r.set("jen.scan_mb_per_query", float64(c[metrics.JENScanBytes])/1e6)
	r.set("relop.spill_evictions_per_query", float64(c[metrics.SpillEvictions]))
	r.set("core.shuffle_balance", res.ShuffleBalance)
	if !in.wl.star {
		r.Notes["algorithm"] = res.Algorithm.String()
	} else {
		r.Notes["algorithm"] = res.Advice
	}
	if in.wl.adapt {
		r.Notes["switched"] = fmt.Sprint(res.Switched)
		r.Notes["switched_to"] = res.SwitchedTo
	}
}

// tracedTarget is the query the spans and the replay follow: the workload's
// only query, the concurrent mix's scan, or the grid's chosen cell.
func (in *instance) tracedTarget() *query { return in.queries[in.wl.replay] }

// replaySpec plans the traced target and decomposes it for the replay.
func (in *instance) replaySpec() (replaySpec, error) {
	q := in.tracedTarget()
	if in.wl.star {
		mq, err := in.w.PlanStar(q.sql)
		if err != nil {
			return replaySpec{}, fmt.Errorf("hwperf: plan star: %w", err)
		}
		return specFromMulti(mq)
	}
	jq, err := in.w.Plan(q.sql)
	if err != nil {
		return replaySpec{}, fmt.Errorf("hwperf: plan: %w", err)
	}
	alg := q.spec.alg
	if !q.spec.forced {
		alg = in.advise(jq, nil, 0, "").Algorithm
	}
	return specFromJoin(jq, alg), nil
}

// advise repeats the warehouse's advisor from its public pieces — the two
// sampling estimators, the optimizer's σ_T, core.Advise — one span each
// (none under a nil tracer).
func (in *instance) advise(jq *plan.JoinQuery, tr *tracer, parent int, qid string) core.Advice {
	begin := func(name string) int { return tr.start(parent, qid, name) }
	end := func(id int) { tr.end(id, 0, 0, 0) }
	stats := core.AdviceStats{SigmaT: 1, SigmaL: 0.2, JENWorkers: workers}
	id := begin("sampling.hotkey")
	if hot, err := in.w.EstimateHotKeyShare(jq, 0); err == nil {
		stats.HotKeyShare = hot
	}
	end(id)
	id = begin("sampling.sigma_l")
	if sl, err := in.w.EstimateSigmaL(jq, 0); err == nil {
		stats.SigmaL = sl
	}
	end(id)
	id = begin("costmodel.advise")
	if tbl, err := in.w.DB().Table(jq.DBTable); err == nil {
		stats.TRows = tbl.Rows()
		stats.SigmaT = in.w.DB().PlanAccess(tbl, jq.DBPred, append([]int(nil), jq.DBProj...)).EstSelectivity
	}
	if cat, err := in.w.Catalog().Lookup(jq.HDFSTable); err == nil {
		stats.LRows = cat.Rows
	}
	a := core.Advise(stats, in.w.Config().Scale)
	end(id)
	return a
}

// splitQuery runs the target once as spans: plan (or analyze) → advice →
// exec, children of one query span, all sharing the query's id.
func (in *instance) splitQuery(ctx context.Context, tr *tracer, i int, q *query) error {
	qid := fmt.Sprintf("q%d", i)
	root := tr.start(0, qid, "query")
	var rows int64
	defer func() { tr.end(root, in.inputRows, rows, 0) }()
	if in.wl.star {
		id := tr.start(root, qid, "analyze")
		_, _, mq, err := in.w.AnalyzeStar(q.sql)
		tr.end(id, 0, 0, 0)
		if err != nil {
			return fmt.Errorf("hwperf: analyze: %w", err)
		}
		id = tr.start(root, qid, "exec")
		res, err := in.w.Engine().RunMultiCtx(ctx, mq)
		if err != nil {
			tr.end(id, 0, 0, 0)
			return fmt.Errorf("hwperf: exec star: %w", err)
		}
		rows = int64(len(res.Rows))
		tr.end(id, in.inputRows, rows, 0)
		return nil
	}
	id := tr.start(root, qid, "plan")
	jq, err := in.w.Plan(q.sql)
	tr.end(id, 0, 0, 0)
	if err != nil {
		return fmt.Errorf("hwperf: plan: %w", err)
	}
	opts := q.opts
	if !q.spec.forced {
		id = tr.start(root, qid, "advise")
		a := in.advise(jq, tr, id, qid)
		tr.end(id, 0, 0, 0)
		opts = []hybridwh.Option{hybridwh.WithAlgorithm(a.Algorithm)}
	}
	id = tr.start(root, qid, "exec")
	res, err := in.w.RunPlanCtx(ctx, jq, opts...)
	if err != nil {
		tr.end(id, 0, 0, 0)
		return fmt.Errorf("hwperf: exec: %w", err)
	}
	rows = int64(len(res.Rows))
	tr.end(id, in.inputRows, rows, busBytes(in.w))
	return nil
}

// traceQueries alternates whole (untraced) and split (traced) runs of the
// target from one client, and derives the planning, execution, runtime and
// tracing-overhead metrics from them.
func (in *instance) traceQueries(ctx context.Context, tr *tracer, n int, r *runResult) error {
	q := in.tracedTarget()
	var whole, split, allocMB, allocs []float64
	var heapPeak uint64
	var ms runtime.MemStats
	gc0, busy0 := cpuSeconds()
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms)
		a0, m0 := ms.TotalAlloc, ms.Mallocs
		t0 := time.Now()
		res, err := in.exec(ctx, q)
		if err != nil {
			return fmt.Errorf("hwperf: traced pass: %w", err)
		}
		whole = append(whole, millis(time.Since(t0)))
		runtime.ReadMemStats(&ms)
		allocMB = append(allocMB, float64(ms.TotalAlloc-a0)/1e6)
		allocs = append(allocs, float64(ms.Mallocs-m0))
		if ms.HeapInuse > heapPeak {
			heapPeak = ms.HeapInuse
		}
		if i == 0 && in.wl.budget == 0 {
			in.queryCounts(res, r)
		}
		t0 = time.Now()
		if err := in.splitQuery(ctx, tr, i, q); err != nil {
			return err
		}
		split = append(split, millis(time.Since(t0)))
	}
	gc1, busy1 := cpuSeconds()

	var exec, analyze []float64
	named := map[string][]float64{}
	for _, s := range tr.snapshot() {
		switch s.Name {
		case "exec":
			exec = append(exec, millis(s.dur()))
		case "analyze":
			analyze = append(analyze, float64(s.dur().Microseconds()))
		}
	}
	if !in.wl.star {
		jq, err := in.w.Plan(q.sql)
		if err != nil {
			return fmt.Errorf("hwperf: plan: %w", err)
		}
		probe := tr.start(0, "advice-probe", "advice-probe")
		for i := 0; i < 3; i++ {
			in.advise(jq, tr, probe, "advice-probe")
		}
		tr.end(probe, 0, 0, 0)
		for _, s := range tr.snapshot() {
			switch s.Name {
			case "sampling.hotkey", "sampling.sigma_l", "costmodel.advise":
				named[s.Name] = append(named[s.Name], float64(s.dur().Nanoseconds()))
			}
		}
		r.set("sampling.hotkey_ms", median(named["sampling.hotkey"])/1e6)
		r.set("sampling.sigma_l_ms", median(named["sampling.sigma_l"])/1e6)
		r.set("costmodel.advise_us", median(named["costmodel.advise"])/1e3)
	}
	if err := in.planningMicro(q, r); err != nil {
		return err
	}
	r.set("core.exec_ms", median(exec))
	r.set("analyzer.analyze_us", median(analyze))
	r.set("runtime.alloc_mb_per_query", median(allocMB))
	r.set("runtime.allocs_per_query", median(allocs))
	r.set("runtime.heap_peak_mb", float64(heapPeak)/1e6)
	if busy1 > busy0 {
		r.set("runtime.gc_cpu_frac", (gc1-gc0)/(busy1-busy0))
	}
	if w := median(whole); w > 0 {
		r.set("trace_overhead_frac", median(split)/w-1)
	}
	return nil
}

// planningMicro times the parser and the two-table planner alone.
func (in *instance) planningMicro(q *query, r *runResult) error {
	const reps = 20
	var parse, planUs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		parsed, err := sqlparse.Parse(q.sql)
		parse = append(parse, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("hwperf: parse: %w", err)
		}
		if in.wl.star {
			continue
		}
		tbl, err := in.w.DB().Table("T")
		if err != nil {
			return fmt.Errorf("hwperf: plan micro: %w", err)
		}
		cat, err := in.w.Catalog().Lookup("L")
		if err != nil {
			return fmt.Errorf("hwperf: plan micro: %w", err)
		}
		t0 = time.Now()
		_, err = sqlparse.PlanQuery(parsed,
			sqlparse.TableMeta{Name: "T", Schema: tbl.Schema},
			sqlparse.TableMeta{Name: "L", Schema: cat.Schema}, expr.NewRegistry())
		planUs = append(planUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("hwperf: plan micro: %w", err)
		}
	}
	r.set("sqlparse.parse_us", median(parse))
	r.set("plan.plan_us", median(planUs))
	return nil
}

// cpuSeconds reads the runtime's CPU accounting: seconds spent in the
// garbage collector, and seconds the program was busy (total minus idle).
func cpuSeconds() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != rtmetrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}
