// Package metrics collects the counters the experiments report and the cost
// model consumes: tuples shuffled and sent (Table 1 of the paper), bytes
// scanned and transferred per worker, and Bloom filter effectiveness.
//
// Counters come in two shapes: scalars (one value per name) and vectors (one
// value per worker slot, so the cost model can apply max-over-workers
// semantics to pipelined phases).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Recorder accumulates counters. It is safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	scalars map[string]int64   // guarded by mu
	vectors map[string][]int64 // guarded by mu
	gauges  map[string]gauge   // guarded by mu
}

// gauge is an instantaneous level with its high-water mark — process-list
// depth, reserved bytes — as opposed to the monotonic counters above.
type gauge struct{ cur, peak int64 }

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		scalars: map[string]int64{},
		vectors: map[string][]int64{},
		gauges:  map[string]gauge{},
	}
}

// Add increments a scalar counter.
func (r *Recorder) Add(name string, n int64) {
	r.mu.Lock()
	r.scalars[name] += n
	r.mu.Unlock()
}

// AddAt increments slot `slot` of a vector counter, growing it as needed.
func (r *Recorder) AddAt(name string, slot int, n int64) {
	if slot < 0 {
		slot = 0
	}
	r.mu.Lock()
	v := r.vectors[name]
	for len(v) <= slot {
		v = append(v, 0)
	}
	v[slot] += n
	r.vectors[name] = v
	r.mu.Unlock()
}

// AddGauge moves a gauge by delta (negative to drop) and tracks its peak.
func (r *Recorder) AddGauge(name string, delta int64) {
	r.mu.Lock()
	g := r.gauges[name]
	g.cur += delta
	if g.cur > g.peak {
		g.peak = g.cur
	}
	r.gauges[name] = g
	r.mu.Unlock()
}

// SetGauge sets a gauge's level directly, tracking its peak.
func (r *Recorder) SetGauge(name string, v int64) {
	r.mu.Lock()
	g := r.gauges[name]
	g.cur = v
	if g.cur > g.peak {
		g.peak = g.cur
	}
	r.gauges[name] = g
	r.mu.Unlock()
}

// Gauge returns a gauge's current level (0 if absent).
func (r *Recorder) Gauge(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name].cur
}

// GaugePeak returns a gauge's high-water mark (0 if absent).
func (r *Recorder) GaugePeak(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name].peak
}

// Get returns a scalar counter, or the sum of a vector counter of the same
// name if no scalar exists.
func (r *Recorder) Get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.scalars[name]; ok {
		return v
	}
	var sum int64
	for _, x := range r.vectors[name] {
		sum += x
	}
	return sum
}

// Vector returns a copy of a vector counter (nil if absent).
func (r *Recorder) Vector(name string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vectors[name]
	if v == nil {
		return nil
	}
	return append([]int64(nil), v...)
}

// Max returns the maximum slot of a vector counter (0 if absent). This is
// the straggler bound for a pipelined parallel phase.
func (r *Recorder) Max(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var m int64
	for _, x := range r.vectors[name] {
		if x > m {
			m = x
		}
	}
	return m
}

// BalanceRatio returns max/mean over a vector counter's slots — the
// load-balance diagnostic for a parallel phase: 1.0 is perfectly even, and
// with a skewed shuffle the ratio approaches the worker count. Returns 0 if
// the counter is absent or all-zero. Workers that received nothing must
// still have touched their slot (AddAt with 0) to count toward the mean.
func (r *Recorder) BalanceRatio(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	vec := r.vectors[name]
	var sum, max int64
	for _, x := range vec {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(vec)) / float64(sum)
}

// Snapshot returns all counters flattened: vectors appear both as their sum
// ("name") and their max ("name.max"); gauges as their level ("name") and
// high-water mark ("name.peak").
func (r *Recorder) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.scalars)+2*len(r.vectors)+2*len(r.gauges))
	for k, v := range r.scalars {
		out[k] = v
	}
	for k, vec := range r.vectors {
		var sum, max int64
		for _, x := range vec {
			sum += x
			if x > max {
				max = x
			}
		}
		out[k] = sum
		out[k+".max"] = max
	}
	for k, g := range r.gauges {
		out[k] = g.cur
		out[k+".peak"] = g.peak
	}
	return out
}

// Reset clears all counters and gauges.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.scalars = map[string]int64{}
	r.vectors = map[string][]int64{}
	r.gauges = map[string]gauge{}
	r.mu.Unlock()
}

// String renders the snapshot sorted by name, for reports.
func (r *Recorder) String() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-40s %d\n", k, snap[k])
	}
	return b.String()
}

// Canonical counter names shared by the engines, the cost model and the
// experiment reports. Vector counters are per-worker.
const (
	// HDFS-side scan.
	JENScanBytes  = "jen.scan.bytes"  // vector: bytes read from HDFS per JEN worker
	JENScanRows   = "jen.scan.rows"   // vector: raw rows decoded per JEN worker
	JENScanLocal  = "jen.scan.local"  // scalar: short-circuit bytes
	JENScanRemote = "jen.scan.remote" // scalar: non-local bytes

	// HDFS-side shuffle (among JEN workers).
	JENShuffleTuples = "jen.shuffle.tuples" // vector: tuples sent per worker
	JENShuffleBytes  = "jen.shuffle.bytes"  // vector

	// Database → HDFS transfer.
	DBSentTuples = "db.sent.tuples" // vector: per DB worker
	DBSentBytes  = "db.sent.bytes"  // vector

	// HDFS → database transfer (DB-side join).
	HDFSSentTuples = "hdfs.sent.tuples" // vector: per JEN worker
	HDFSSentBytes  = "hdfs.sent.bytes"  // vector

	// Database internal reshuffle of T' (native engine path).
	DBReshuffleTuples = "db.reshuffle.tuples" // vector
	DBReshuffleBytes  = "db.reshuffle.bytes"  // vector

	// HDFS rows ingested into the database (the slow UDF path); each
	// ingested row is counted once, at the worker that received it from
	// its JEN group.
	DBIngestTuples = "db.ingest.tuples" // vector
	DBIngestBytes  = "db.ingest.bytes"  // vector

	// Database-side access.
	DBScanRows      = "db.scan.rows"      // vector: base-table rows touched per DB worker
	DBIndexRows     = "db.index.rows"     // vector: index-only rows touched
	DBFilteredRows  = "db.filtered.rows"  // vector: rows in T' per DB worker
	DBBloomFiltered = "db.bloom.filtered" // scalar: T' rows dropped by BF_H
	DBDimJoinTuples = "db.dimjoin.tuples" // scalar: rows out of DB-side snowflake pre-joins

	// Bloom filters.
	BloomBuildKeys = "bloom.build.keys" // scalar: keys inserted (both sides)
	BloomBytes     = "bloom.bytes"      // scalar: filter bytes moved across the interconnect

	// Join and aggregation on whichever side executes them.
	JoinBuildTuples  = "join.build.tuples"  // vector: hash table inserts
	JoinProbeTuples  = "join.probe.tuples"  // vector: probes
	JoinOutputTuples = "join.output.tuples" // scalar: joined rows pre-aggregation
	AggGroups        = "agg.groups"         // scalar: final group count

	// JEN worker pipeline accounting (for the cost model's overlap rules).
	JENProcessTuples = "jen.process.tuples" // vector: rows through the process thread
	JENRecvTuples    = "jen.recv.tuples"    // vector: shuffled rows received

	// Hybrid skew partitioner (an adaptive decision, see core/adaptive.go).
	// Hot tuples are counted at the sender; the receive-side balance is
	// BalanceRatio(JENRecvTuples).
	JENShuffleHotTuples = "jen.shuffle.hot" // vector: hot-key tuples scattered per sending JEN worker

	// Intra-worker parallelism accounting. Slots index the morsel/probe
	// thread, not the worker: the sum equals the corresponding per-worker
	// totals, while the max exposes thread-level skew. With more than one
	// thread the per-slot split (and so the .max) depends on scheduling —
	// diagnostic only, not part of the deterministic counter contract.
	JENMorselTuples = "jen.morsel.tuples" // vector: rows processed per morsel thread
	JoinProbeSplit  = "join.probe.split"  // vector: probe rows handled per probe thread

	// Dynamic hybrid hash join (internal/relop spill path). Recorded only
	// when non-zero so budget-free runs keep byte-identical snapshots;
	// under a shared cross-worker budget the per-worker split depends on
	// scheduling — diagnostic, like JENMorselTuples.
	SpillBuildRows    = "spill.build.rows"    // vector: build rows written to disk per JEN worker
	SpillProbeRows    = "spill.probe.rows"    // vector: probe rows written to disk
	SpillEvictions    = "spill.evictions"     // vector: partitions evicted under pressure
	SpillRepartitions = "spill.repartitions"  // vector: recursive repartition passes
	SpillNLFallbacks  = "spill.nl.fallbacks"  // vector: block nested-loop passes
	MemOvershootBytes = "mem.overshoot.bytes" // gauge: forced excess over a query grant (.peak = worst query)

	// Scheduler (internal/sched). Counters are monotonic per scheduler
	// lifetime; the gauges track the live process list and reserved grants.
	SchedSubmitted   = "sched.submitted"    // scalar: queries accepted into the queue
	SchedKilled      = "sched.killed"       // scalar: queries killed via Kill
	SchedCompleted   = "sched.completed"    // scalar: queries finished successfully
	SchedFailed      = "sched.failed"       // scalar: queries finished with an error
	SchedRunning     = "sched.running"      // gauge: queries executing now (.peak = max concurrency)
	SchedQueuedPoint = "sched.queued.point" // gauge: point-lane queue depth
	SchedQueuedScan  = "sched.queued.scan"  // gauge: scan-lane queue depth
	MemReservedBytes = "mem.reserved.bytes" // gauge: governor grants outstanding (.peak ≤ budget)

	// Adaptive execution (core.Config.AdaptiveSwitch). Recorded only when
	// the adaptive layer runs, so non-adaptive snapshots stay byte-identical.
	AdaptDecisions         = "adapt.decisions"           // scalar: mid-query decision points evaluated
	AdaptSwitches          = "adapt.switches"            // scalar: decisions that changed the plan
	AdaptBytes             = "adapt.bytes"               // scalar: observed-stats and decision bytes moved
	AdaptObsSigmaLPermille = "adapt.obs.sigmal.permille" // scalar: observed σ_L at the decision point, ×1000
	AdaptObsTPrimeRows     = "adapt.obs.tprime.rows"     // scalar: observed |T'| at the decision point
	AdaptObsHotPermille    = "adapt.obs.hot.permille"    // scalar: observed hottest-key share of the scan prefix, ×1000
)
