// Package core implements the paper's contribution: the four join
// algorithms for hybrid warehouses (Section 3) executed across the parallel
// database (internal/edw) and JEN (internal/jen), exchanging Bloom filters
// and rows over the message bus (internal/netsim) in parallel between every
// DB worker and its group of JEN workers.
//
// Each algorithm runs one goroutine per DB worker and one per JEN worker —
// the worker programs — that communicate only through the bus, exactly
// mirroring the paper's data flows (Figures 1–4). Queries are issued at the
// database side and results return to the database side (Section 2).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hybridwh/internal/edw"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/types"
)

// Algorithm selects a join algorithm.
type Algorithm int

// The join algorithms of Section 3.
const (
	// DBSide ships filtered HDFS data into the database (Polybase-style).
	DBSide Algorithm = iota
	// DBSideBloom is DBSide with BF_DB pruning the HDFS scan (Figure 1).
	DBSideBloom
	// Broadcast sends T' to every JEN worker; no HDFS shuffle (Figure 2).
	Broadcast
	// Repartition shuffles L' and routes T' by the agreed hash (Figure 3,
	// without the Bloom filter).
	Repartition
	// RepartitionBloom is Repartition with BF_DB (Figure 3).
	RepartitionBloom
	// Zigzag uses Bloom filters both ways: BF_DB prunes the shuffle, BF_H
	// prunes the database transfer (Figure 4).
	Zigzag
)

// The extensions, for ablation studies; neither is one of the paper's
// evaluated algorithms.
const (
	// SemiJoin is the classic exact two-way semijoin baseline the literature
	// contrasts Bloom joins against (the paper cites Mullin's semijoins and
	// PERF join as the predecessors): the zigzag dataflow exchanging exact
	// join-key sets instead of Bloom filters. No false positives, but the
	// key sets are far larger than 16 MB Bloom filters, so the
	// cross-cluster filter exchange costs more — the trade-off the paper's
	// Section 6 discusses.
	SemiJoin Algorithm = 100
	// ZigzagDBVariant is the variant the paper dismisses in Section 3.4: a
	// zigzag-style two-way Bloom filter exchange whose *final join runs in
	// the database*. It must scan the HDFS table twice — once to build
	// BF_H, once (after BF_H has pruned T') to ship the doubly-filtered L”
	// into the database — and "scanning the HDFS table twice, without the
	// help of indexes, is expected to introduce significant overhead."
	// Implemented so the claim is checkable; see
	// BenchmarkAblationZigzagDBSide.
	ZigzagDBVariant Algorithm = 101
)

// algNames names the algorithms as the paper's figures do.
var algNames = map[Algorithm]string{
	DBSide: "db", DBSideBloom: "db(BF)", Broadcast: "broadcast", Repartition: "repartition",
	RepartitionBloom: "repartition(BF)", Zigzag: "zigzag", SemiJoin: "semijoin", ZigzagDBVariant: "zigzag-db",
}

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	if name, ok := algNames[a]; ok {
		return name
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Algorithms lists every implemented algorithm: the paper's six plus the
// extensions (the exact-semijoin baseline and the dismissed DB-side zigzag
// variant).
func Algorithms() []Algorithm {
	return []Algorithm{DBSide, DBSideBloom, Broadcast, Repartition, RepartitionBloom, Zigzag, SemiJoin, ZigzagDBVariant}
}

// PaperAlgorithms lists the six algorithms the paper evaluates.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{DBSide, DBSideBloom, Broadcast, Repartition, RepartitionBloom, Zigzag}
}

// Config tunes the engine.
type Config struct {
	// BloomBits and BloomHashes size every Bloom filter. The paper uses
	// 128M bits and 2 hashes for 16M join keys; scale proportionally.
	BloomBits   uint64
	BloomHashes int
	// BatchRows is the wire batch size. Defaults to the JEN batch size.
	BatchRows int
	// SpillDir hosts spill files ("" = the OS temp dir): a query run under
	// a budget (RunOpts.Budget) spills the shuffle joins' build partitions
	// that do not fit.
	SpillDir string
	// BroadcastRelay switches every broadcast edge — the two-table broadcast
	// join and an N-way plan's broadcast edges alike — to the paper's
	// alternative §4.3 transfer scheme: each DB worker ships its partition to
	// a single JEN worker, which relays it to all others. Less strain on the
	// inter-cluster link, one extra intra-HDFS transfer round (the paper
	// measured the direct scheme faster and kept it; this option is the
	// ablation).
	BroadcastRelay bool
	// WorkerThreads is the intra-worker parallelism degree: how many morsel
	// goroutines each JEN worker runs for its scan→filter→shuffle/build
	// stage and its probe stage (the paper's multi-threaded JEN worker,
	// Figure 7). Defaults to runtime.GOMAXPROCS(0). 1 reproduces the
	// single-threaded pipeline bit-identically, counters included; higher
	// degrees keep every deterministic counter (totals, message and byte
	// counts) and the query result identical, while the per-thread split
	// (metrics.JENMorselTuples/JoinProbeSplit .max) depends on scheduling.
	// The spilling join ignores it and stays single-threaded.
	WorkerThreads int
	// AdaptiveSwitch enables mid-query algorithm switching for the
	// repartition-based joins (see adaptive.go): after the first
	// adaptBatches wire batches of the JEN scan, the observed σ_L, |T'| and
	// hot-key share re-cost the committed plan against broadcasting T' and
	// against the hybrid skew partitioner, and the cheaper plan (past the
	// adaptMargin hysteresis) takes over mid-flight. Results are exact
	// either way. Plain hash routing is the default; the hybrid partitioner
	// (see internal/skew) engages only by observed decision.
	AdaptiveSwitch bool
}

func (c Config) withDefaults(j *jen.Cluster) Config {
	if c.BloomBits == 0 {
		c.BloomBits = 128_000
	}
	if c.BloomHashes <= 0 {
		c.BloomHashes = 2
	}
	if c.BatchRows <= 0 {
		c.BatchRows = j.BatchRows()
	}
	if c.WorkerThreads <= 0 {
		c.WorkerThreads = runtime.GOMAXPROCS(0)
	}
	return c
}

// Engine wires the two systems together.
type Engine struct {
	db  *edw.DB
	jen *jen.Cluster
	bus netsim.Bus
	rec *metrics.Recorder
	cfg Config

	routers map[string]*netsim.Router
	qid     atomic.Int64

	// Per-query memory budgets, keyed by the query's stream prefix ("q7/").
	// The prefix is already threaded through every worker program, so the
	// budget rides along without widening fifteen program signatures.
	budMu   sync.Mutex
	budgets map[string]*mem.Budget // guarded by budMu
}

// New registers every worker endpoint on the bus and returns an engine.
// All components must share the same metrics recorder.
func New(db *edw.DB, jc *jen.Cluster, bus netsim.Bus, rec *metrics.Recorder, cfg Config) (*Engine, error) {
	if db == nil || jc == nil || bus == nil {
		return nil, fmt.Errorf("core: db, jen and bus are all required")
	}
	if rec == nil {
		rec = metrics.New()
	}
	e := &Engine{db: db, jen: jc, bus: bus, rec: rec, cfg: cfg.withDefaults(jc), routers: map[string]*netsim.Router{}, budgets: map[string]*mem.Budget{}}
	for _, name := range append(e.dbNames(), e.jenNames()...) {
		inbox, err := bus.Register(name)
		if err != nil {
			return nil, err
		}
		e.routers[name] = netsim.NewRouter(inbox)
	}
	return e, nil
}

// Close stops the routers and the bus.
func (e *Engine) Close() error {
	for _, r := range e.routers {
		r.Stop()
	}
	return e.bus.Close()
}

// Recorder returns the shared metrics recorder.
func (e *Engine) Recorder() *metrics.Recorder { return e.rec }

// DB returns the database engine.
func (e *Engine) DB() *edw.DB { return e.db }

// JEN returns the HDFS-side engine.
func (e *Engine) JEN() *jen.Cluster { return e.jen }

// Bus returns the message bus.
func (e *Engine) Bus() netsim.Bus { return e.bus }

// budget returns the memory budget registered for a query's stream prefix,
// or nil when the query runs ungoverned.
func (e *Engine) budget(qs string) *mem.Budget {
	e.budMu.Lock()
	defer e.budMu.Unlock()
	return e.budgets[qs]
}

// begin starts a query: it allocates the query's stream prefix and
// registers its memory budget, which done unregisters.
func (e *Engine) begin(ctx context.Context, opts RunOpts) (qs string, done func(), err error) {
	if err := ctx.Err(); err != nil {
		return "", nil, fmt.Errorf("core: query not started: %w", err)
	}
	qs = fmt.Sprintf("q%d/", e.qid.Add(1))
	e.budMu.Lock()
	defer e.budMu.Unlock()
	if opts.Budget != nil {
		e.budgets[qs] = opts.Budget
	}
	return qs, func() {
		e.budMu.Lock()
		delete(e.budgets, qs)
		e.budMu.Unlock()
	}, nil
}

// Result is a completed query, returned at the database side.
type Result struct {
	Rows      []types.Row
	Schema    types.Schema
	Algorithm Algorithm
	// DBJoinStrategy is the database optimizer's final-join choice for the
	// DB-side algorithms (RepartitionBoth otherwise irrelevant).
	DBJoinStrategy edw.JoinStrategy
	// Switched reports the adaptive layer (Config.AdaptiveSwitch) changed
	// the plan mid-query; SwitchedTo names the runtime strategy it changed
	// to and SwitchReason carries the observed statistics and re-costs that
	// justified it.
	Switched     bool
	SwitchedTo   string
	SwitchReason string
	// Metrics is a snapshot of the counters accumulated during the run.
	Metrics map[string]int64
}

// Run executes the query with the chosen algorithm and returns the result
// at the database side.
func (e *Engine) Run(q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	return e.RunCtx(context.Background(), q, alg)
}

// RunCtx is Run under a caller-supplied context: canceling ctx (or its
// deadline expiring) aborts the query — every worker program unwinds, the
// wire protocol is torn down, and the cancellation cause comes back wrapped
// in the returned error (errors.Is sees context.Canceled or
// context.DeadlineExceeded).
func (e *Engine) RunCtx(ctx context.Context, q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	return e.RunCtxOpts(ctx, q, alg, RunOpts{})
}

// RunOpts carries per-run options that default to the engine's config.
type RunOpts struct {
	// Budget, when non-nil, governs this query's operator memory: scan
	// pools, hash-join builds and aggregation state all charge against it,
	// and the dynamic hybrid hash join sheds partitions to stay inside it.
	// It is the engine's one memory knob. The caller keeps
	// ownership (the engine never closes it), so one budget may be shared
	// across queries — the scheduler's global-governance mode.
	Budget *mem.Budget
}

// RunCtxOpts is RunCtx with per-run options; RunOpts{} reproduces RunCtx
// exactly.
func (e *Engine) RunCtxOpts(ctx context.Context, q *plan.JoinQuery, alg Algorithm, opts RunOpts) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if _, ok := algNames[alg]; !ok {
		return nil, fmt.Errorf("core: unknown algorithm %d", alg)
	}
	qs, done, err := e.begin(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer done()
	res, err := e.runOneEdge(ctx, qs, q, alg)
	if err != nil {
		return nil, fmt.Errorf("core: %s query aborted: %w", alg, err)
	}
	res.Algorithm = alg
	res.Schema = q.OutputSchema
	res.Metrics = e.rec.Snapshot()
	return res, nil
}

// runOneEdge runs a two-table query as its one-edge plan (see
// lowerTwoTable) and reports the database's join strategy and the scan
// gate's decision, if any.
func (e *Engine) runOneEdge(ctx context.Context, qs string, q *plan.JoinQuery, alg Algorithm) (*Result, error) {
	mq, edges, err := e.lowerTwoTable(q, alg)
	if err != nil {
		return nil, err
	}
	rows, err := e.runEdges(ctx, qs, mq, edges)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: rows, DBJoinStrategy: edges[0].strategy}
	if d := edges[0].decided; d != nil {
		res.SwitchReason = d.reason
		if d.kind != keepPlan {
			res.Switched, res.SwitchedTo = true, d.kind.String()
		}
	}
	return res, nil
}
