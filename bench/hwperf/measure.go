package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridwh"
	"hybridwh/internal/cluster"
	"hybridwh/internal/core"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes carry what the acceptance checks read but no metric holds: the
	// algorithm that ran, whether the adaptive layer switched, the layer
	// shares of the replay.
	Notes     map[string]string `json:"notes,omitempty"`
	FirstDiff string            `json:"first_diff,omitempty"`
}

func (r *runResult) set(name string, v float64) {
	def, ok := metricByName(name)
	if !ok {
		panic("hwperf: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
}

func newResult(wl workload, seed int64, trace bool) *runResult {
	return &runResult{
		Workload: wl.def.Name, Seed: seed, Trace: trace,
		Metrics: map[string]metricValue{}, Notes: map[string]string{},
	}
}

// sample is one measured query.
type sample struct {
	ticket int
	q      *query
	dur    time.Duration
	rows   []types.Row
	alg    core.Algorithm
	moved  int64 // bus bytes of this query (serial workloads)
	err    error
}

// busTotals reads the bus counters: bytes per link class and messages.
func busTotals(w *hybridwh.Warehouse) (cross, intra, msgs int64) {
	c := w.Engine().Bus().Counters()
	cross = c.Bytes(cluster.Cross)
	intra = c.Bytes(cluster.IntraDB) + c.Bytes(cluster.IntraHDFS)
	msgs = c.Messages(cluster.Cross) + c.Messages(cluster.IntraDB) + c.Messages(cluster.IntraHDFS)
	return cross, intra, msgs
}

func busBytes(w *hybridwh.Warehouse) int64 {
	cross, intra, _ := busTotals(w)
	return cross + intra
}

// loopStats is what one closed loop measured besides its samples.
type loopStats struct {
	wall  time.Duration
	moved int64 // bus bytes over the whole loop, all link classes
}

// closedLoop runs the workload's clients: each takes the next ticket, runs
// cycle[ticket % len(cycle)], and only then takes another — so a slower
// system receives less load. The loop stops at the first cycle boundary past
// the deadline (or after sz.Cycles cycles), so every run measures whole
// cycles and the scan:point mix is exact. Results are kept and verified
// after the clock stops.
func (in *instance) closedLoop(ctx context.Context, seconds float64, cycles int) ([]sample, loopStats, error) {
	n := len(in.queries)
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample // guarded by mu
	// Without the scheduler the bus counters restart with every query, so a
	// serial loop adds up per-query readings; under it they only grow.
	serial := in.wl.budget == 0

	movedBefore := busBytes(in.w)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	take := func() (int, bool) {
		for {
			t := next.Load()
			if cycles > 0 {
				if t >= int64(cycles*n) {
					return 0, false
				}
			} else if t%int64(n) == 0 && !time.Now().Before(deadline) {
				return 0, false
			}
			if next.CompareAndSwap(t, t+1) {
				return int(t), true
			}
		}
	}
	g, gctx := par.WithContext(ctx)
	for c := 0; c < in.wl.clients(); c++ {
		g.Go(func() error {
			for {
				t, ok := take()
				if !ok || gctx.Err() != nil {
					return nil
				}
				q := in.queries[t%n]
				t0 := time.Now()
				res, err := in.exec(gctx, q)
				s := sample{ticket: t, q: q, dur: time.Since(t0), err: err}
				if err == nil {
					s.rows, s.alg = res.Rows, res.Algorithm
					if serial {
						s.moved = busBytes(in.w)
					}
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		})
	}
	if err := g.Wait(); err != nil {
		return nil, loopStats{}, err
	}
	st := loopStats{wall: time.Since(start)}
	if serial {
		for _, s := range samples {
			st.moved += s.moved
		}
	} else {
		st.moved = busBytes(in.w) - movedBefore
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ticket < samples[j].ticket })
	return samples, st, nil
}

// warmUp fills every reference and runs the caches warm: each group of
// queries that must agree gets one run of the plain db algorithm (a
// different code path from every workload's own algorithm except the grid's
// db cells), star_cascade gets the driver's own single-pass evaluation, and
// each distinct query then runs once unmeasured.
func (in *instance) warmUp(ctx context.Context) error {
	if in.wl.star {
		ref, err := starReference(in.w.Star(), in.limits)
		if err != nil {
			return err
		}
		in.queries[0].ref = ref
	}
	seen := map[*query]bool{}
	for _, q := range in.queries {
		holder := q
		if q.refOf != nil {
			holder = q.refOf
		}
		if holder.ref == nil {
			res, err := in.exec(ctx, holder, hybridwh.WithAlgorithm(core.DBSide))
			if err != nil {
				return fmt.Errorf("hwperf: reference run %s: %w", holder.spec.label, err)
			}
			holder.ref = canonical(res.Rows)
		}
		if in.wl.grid || seen[holder] {
			continue // the grid warms through its advisor calls
		}
		seen[holder] = true
		for i := 0; i < 2; i++ {
			if _, err := in.exec(ctx, q); err != nil {
				return fmt.Errorf("hwperf: warm-up %s: %w", q.spec.label, err)
			}
		}
	}
	return nil
}

// verify checks every sample against its reference and counts failures.
func verify(samples []sample, r *runResult) {
	for _, s := range samples {
		r.Attempted++
		diff := ""
		if s.err != nil {
			diff = s.err.Error()
		} else {
			diff = diffRows(s.q.reference(), canonical(s.rows))
		}
		if diff != "" {
			r.Failed++
			if r.FirstDiff == "" {
				r.FirstDiff = fmt.Sprintf("%s (ticket %d): %s", s.q.spec.label, s.ticket, diff)
			}
		}
	}
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// prepare is what both passes do before measuring: set up `setups` times
// (keeping the last warehouse and every set-up time), fill the references,
// warm up, and ask the advisor about each grid point.
func prepare(ctx context.Context, wl workload, seed int64, sz sizing, setups int, r *runResult) (*instance, []core.Algorithm, []float64, error) {
	var in *instance
	var times []float64
	for i := 0; i < setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, nil, fmt.Errorf("hwperf: close: %w", err)
			}
			runtime.GC() // the previous copy of the data is garbage; do not bill it to this set-up
		}
		t0 := time.Now()
		next, err := wl.setup(seed, sz)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		in = next
	}
	if err := in.warmUp(ctx); err != nil {
		return nil, nil, nil, errors.Join(err, in.close())
	}
	advised, err := in.askAdvisor(ctx, r)
	if err != nil {
		return nil, nil, nil, errors.Join(err, in.close())
	}
	return in, advised, times, nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, wl workload, seed int64, seconds float64, sz sizing) (*runResult, error) {
	r := newResult(wl, seed, false)
	in, advised, setups, err := prepare(ctx, wl, seed, sz, sz.Setups, r)
	if err != nil {
		return nil, err
	}
	defer in.close() // nothing is written through the warehouse; its error cannot change the result
	runtime.GC()
	samples, st, err := in.closedLoop(ctx, seconds, sz.Cycles)
	if err != nil {
		return nil, err
	}
	verify(samples, r)
	in.summarize(samples, st, r)
	r.set("setup_s", median(setups))
	if in.wl.grid {
		gridMetrics(samples, advised, r)
	}
	if len(samples) > 0 && !in.wl.star {
		r.Notes["algorithm"] = samples[0].alg.String()
	}
	return r, nil
}

// summarize derives the query metrics from a loop's samples.
func (in *instance) summarize(samples []sample, st loopStats, r *runResult) {
	var ms []float64
	for _, s := range samples {
		if s.err == nil {
			ms = append(ms, millis(s.dur))
		}
	}
	_, p50, p75 := quartiles(ms)
	r.Samples = len(ms)
	r.set("query_p50_ms", p50)
	r.set("query_p75_ms", p75)
	r.set("rows_per_s", float64(in.inputRows)*float64(len(ms))/st.wall.Seconds())
	if len(ms) > 0 {
		r.set("moved_mb_per_query", float64(st.moved)/float64(len(ms))/1e6)
	}
}

// askAdvisor runs each grid point once with no hint and no forced
// algorithm, verifies the rows like any other query, and records what the
// advisor picked (nil off the grid).
func (in *instance) askAdvisor(ctx context.Context, r *runResult) ([]core.Algorithm, error) {
	var out []core.Algorithm
	for i, q := range in.advisor {
		res, err := in.exec(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("hwperf: advisor call %s: %w", q.spec.label, err)
		}
		verify([]sample{{ticket: i, q: q, rows: res.Rows}}, r)
		out = append(out, res.Algorithm)
		r.Notes[q.spec.label] = res.Algorithm.String()
	}
	return out, nil
}

// algMetric names core.algo_ms.<alg> for a paper algorithm.
func algMetric(a core.Algorithm) string {
	switch a {
	case core.DBSideBloom:
		return "core.algo_ms.db-bf"
	case core.RepartitionBloom:
		return "core.algo_ms.repartition-bf"
	default:
		return "core.algo_ms." + a.String()
	}
}

// gridMetrics computes, per grid point, the median time of each algorithm,
// then advisor_regret — the geometric mean over the points of (median of the
// advisor's choice ÷ best median) — and each algorithm's geometric-mean
// median across the points.
func gridMetrics(samples []sample, advised []core.Algorithm, r *runResult) {
	times := map[int]map[core.Algorithm][]float64{}
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		p := s.q.spec.point
		if times[p] == nil {
			times[p] = map[core.Algorithm][]float64{}
		}
		times[p][s.q.spec.alg] = append(times[p][s.q.spec.alg], millis(s.dur))
	}
	logRegret, points := 0.0, 0
	logAlg := map[core.Algorithm]float64{}
	for p, byAlg := range times {
		best := math.Inf(1)
		var bestAlg core.Algorithm
		for a, ts := range byAlg {
			m := median(ts)
			logAlg[a] += math.Log(m)
			if m < best {
				best, bestAlg = m, a
			}
		}
		points++
		r.Notes[fmt.Sprintf("p%d/best", p)] = bestAlg.String()
		if p < len(advised) {
			if ts := byAlg[advised[p]]; len(ts) > 0 {
				logRegret += math.Log(median(ts) / best)
			}
		}
	}
	if points == 0 {
		return
	}
	r.set("advisor_regret", math.Exp(logRegret/float64(points)))
	for a, l := range logAlg {
		r.set(algMetric(a), math.Exp(l/float64(points)))
	}
}
