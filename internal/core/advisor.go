package core

import "fmt"

// AdviceStats are the planning statistics the advisor consults: table sizes
// and estimated local-predicate selectivities (from histograms on the DB
// side and the catalog/cardinality hint on the HDFS side).
type AdviceStats struct {
	TRows  int64
	LRows  int64
	SigmaT float64 // estimated σ_T
	SigmaL float64 // estimated σ_L
	// AvgTWireBytes estimates the shipped width of a T' row (default 16).
	AvgTWireBytes int
	// HotKeyShare is the estimated fraction of L' held by its single most
	// frequent join key (0 = unknown/uniform). With a plain hash
	// repartition, that whole fraction lands on one worker.
	HotKeyShare float64
	// SkewHandled reports that the engine escalates to the hybrid skew
	// shuffle on observed skew (Config.AdaptiveSwitch), which neutralizes
	// HotKeyShare for the shuffle-based algorithms.
	SkewHandled bool
	// JENWorkers is the HDFS-side worker count (0 = unknown; skew reasoning
	// is skipped).
	JENWorkers int
}

// Advice is the advisor's decision with its rationale.
type Advice struct {
	Algorithm Algorithm
	Reason    string
}

// Thresholds codifying Section 5.5's empirical findings.
const (
	// broadcastMaxBytes: "broadcast join is only preferable when the
	// predicate on T is highly selective, e.g. σT ≤ 0.001 (T' ≤ 25MB)".
	broadcastMaxBytes = 25 << 20
	// dbSideMaxSigmaL: "DB-side join performs better only when the
	// predicate selectivity on the HDFS table is very selective
	// (σL ≤ 0.01)".
	dbSideMaxSigmaL = 0.01
	// skewBroadcastShare: when one join key holds more than this share of
	// L' and the skew-resilient shuffle is off, a hash repartition
	// concentrates that share on a single worker — the straggler erases the
	// parallel speedup, so broadcasting T' (no L shuffle at all) wins even
	// for a T' well past the uniform-case threshold.
	skewBroadcastShare = 0.2
	// skewBroadcastMaxBytes caps how large a T' the skew escape hatch will
	// still broadcast (replication to every worker is not free either).
	skewBroadcastMaxBytes = 8 * broadcastMaxBytes
)

// Advise picks a join algorithm for a hybrid query, implementing the
// paper's discussion: broadcast when T' is tiny, the DB-side join (with a
// Bloom filter) when the HDFS predicate is very selective, and otherwise
// the zigzag join — "the most reliable join method that works the best most
// of the time". Scale converts row estimates to paper-scale bytes for the
// broadcast threshold; pass 1 when the inputs are full-size.
func Advise(s AdviceStats, scale float64) Advice {
	if scale <= 0 {
		scale = 1
	}
	width := s.AvgTWireBytes
	if width <= 0 {
		width = 16
	}
	tPrimeBytes := float64(s.TRows) * scale * s.SigmaT * float64(width)
	// Guard on TRows, not tPrimeBytes: a fully-filtered T' (σ_T estimated 0)
	// is the *cheapest* possible broadcast, not a reason to fall through to
	// zigzag. tPrimeBytes == 0 with TRows > 0 means the estimate says nothing
	// survives — broadcast the (near-)empty T' and skip the shuffle entirely.
	// Only an unknown table (TRows == 0, no statistics) should skip this rule.
	if s.TRows > 0 && tPrimeBytes <= broadcastMaxBytes {
		return Advice{
			Algorithm: Broadcast,
			Reason: fmt.Sprintf("T' ≈ %.1f MB fits on every worker; broadcasting avoids any HDFS shuffle",
				tPrimeBytes/(1<<20)),
		}
	}
	if s.SigmaL > 0 && s.SigmaL <= dbSideMaxSigmaL {
		return Advice{
			Algorithm: DBSideBloom,
			Reason: fmt.Sprintf("σ_L ≈ %.4f is highly selective; shipping the small L' into the database wins",
				s.SigmaL),
		}
	}
	// The shuffle-based algorithms (repartition, zigzag) assume the agreed
	// hash spreads L' evenly. A dominant join key breaks that: the hot key's
	// home worker receives HotKeyShare of the shuffle and everything waits
	// for it. If the engine's hybrid skew shuffle is off, fall back to
	// broadcast — T' replication costs the same on every worker, so the hot
	// key probes in parallel wherever its L rows already sit.
	if !s.SkewHandled && s.JENWorkers > 1 && s.HotKeyShare > skewBroadcastShare &&
		s.HotKeyShare > 2/float64(s.JENWorkers) &&
		tPrimeBytes > 0 && tPrimeBytes <= skewBroadcastMaxBytes {
		return Advice{
			Algorithm: Broadcast,
			Reason: fmt.Sprintf("hottest join key holds ≈%.0f%% of L' and the skew-resilient shuffle is off: a hash repartition would bottleneck on one worker, so broadcast T' (≈%.1f MB) instead",
				s.HotKeyShare*100, tPrimeBytes/(1<<20)),
		}
	}
	return Advice{
		Algorithm: Zigzag,
		Reason:    "no highly selective side: zigzag exploits join-key predicates in both directions and is the robust choice",
	}
}
