package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridwh/internal/cluster"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
)

// adaptTestConfig is the fixture engine config with the adaptive layer
// toggled, so adaptive-on and adaptive-off runs are directly comparable.
func adaptTestConfig(on bool) Config {
	return Config{
		BloomBits: 1 << 14, BloomHashes: 2, BatchRows: 64, WorkerThreads: 1,
		AdaptiveSwitch: on,
	}
}

// uniformKeys reproduces buildFixture's L key distribution so the
// misprediction regimes can reuse buildSkewFixtureKeys with caller configs.
func uniformKeys(rng *rand.Rand) int { return rng.Intn(300) }

// alignedKeys draws L keys inside T's filtered key prefix (tCor=300 keeps
// joinKeys ≤ 60), so the DB Bloom filter prunes almost nothing and the
// observed post-BF L' stays as expensive to shuffle as the raw scan — the
// regime where broadcast must win even for the BF algorithm variants.
func alignedKeys(rng *rand.Rand) int { return rng.Intn(60) }

// hotKeys90 plants a ~90% heavy hitter on join key 7 — well past the switch
// bar, where a planted 50% would sit inside the hysteresis margin.
func hotKeys90(rng *rand.Rand) int {
	if rng.Intn(10) == 0 {
		return rng.Intn(300)
	}
	return 7
}

var adaptTransports = []struct {
	name   string
	newBus func() netsim.Bus
}{
	{"chan", func() netsim.Bus { return netsim.NewChanBus(256) }},
	{"tcp", func() netsim.Bus { return netsim.NewTCPBus(256) }},
}

// runAdaptivePair runs the same query on identically-seeded fixtures with
// the adaptive layer off and on, asserts both match the naive reference,
// and returns the adaptive run's result for decision assertions.
func runAdaptivePair(t *testing.T, newBus func() netsim.Bus, nextKey func(*rand.Rand) int,
	dbW, jenW, tN, lN int, tCor, lCor int32, alg Algorithm) *Result {
	t.Helper()
	var rows [2][]string
	var adaptive *Result
	for i, on := range []bool{false, true} {
		f := buildSkewFixtureKeys(t, newBus(), dbW, jenW, tN, lN, adaptTestConfig(on), nextKey)
		want := reference(t, f, tCor, lCor)
		if len(want) == 0 {
			t.Fatal("reference result empty; fixture too sparse")
		}
		res, err := f.eng.Run(exampleQuery(t, f, tCor, lCor), alg)
		if err != nil {
			t.Fatalf("adaptive=%v: %v", on, err)
		}
		checkResult(t, res, want, alg)
		for _, r := range res.Rows {
			rows[i] = append(rows[i], r.String())
		}
		if on {
			adaptive = res
		} else if res.Switched || res.SwitchReason != "" {
			t.Errorf("adaptive off but Switched=%v reason=%q", res.Switched, res.SwitchReason)
		}
		if err := f.eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Byte-identical rows, not just the same aggregates: switching may only
	// change where tuples meet, never what joins.
	if len(rows[0]) != len(rows[1]) {
		t.Fatalf("row count changed: %d static vs %d adaptive", len(rows[0]), len(rows[1]))
	}
	for j := range rows[0] {
		if rows[0][j] != rows[1][j] {
			t.Errorf("row %d differs: static %s vs adaptive %s", j, rows[0][j], rows[1][j])
		}
	}
	return adaptive
}

// TestAdaptiveSwitchesToBroadcast: the advisor's nightmare regime — the
// committed repartition assumed a T' worth shuffling for, but the observed
// T' is a few hundred rows while all of L survives both the predicate and
// the DB Bloom filter. The adaptive layer must abandon the shuffle
// mid-query, broadcast T' instead, and still return results byte-identical
// to the never-switch run, on both transports.
func TestAdaptiveSwitchesToBroadcast(t *testing.T) {
	for _, tr := range adaptTransports {
		for _, alg := range []Algorithm{Repartition, RepartitionBloom, Zigzag} {
			t.Run(fmt.Sprintf("%s/%s", tr.name, alg), func(t *testing.T) {
				// T' is ~180 rows (tCor=300); every L key joins, so the
				// committed plan would shuffle ~20000 rows to meet a hash
				// table a single broadcast replaces.
				res := runAdaptivePair(t, tr.newBus, alignedKeys, 2, 3, 600, 20000, 300, 400, alg)
				if !res.Switched || res.SwitchedTo != "broadcast" {
					t.Fatalf("Switched=%v to %q (%s), want broadcast", res.Switched, res.SwitchedTo, res.SwitchReason)
				}
				if !strings.Contains(res.SwitchReason, "broadcast") {
					t.Errorf("reason does not explain the switch: %q", res.SwitchReason)
				}
				if res.Metrics[metrics.AdaptDecisions] != 1 || res.Metrics[metrics.AdaptSwitches] != 1 {
					t.Errorf("adapt counters: decisions=%d switches=%d, want 1/1",
						res.Metrics[metrics.AdaptDecisions], res.Metrics[metrics.AdaptSwitches])
				}
				// The abandoned shuffle must not have moved L': the buffered
				// prefix is probed locally, not scattered.
				if moved := res.Metrics[metrics.JENShuffleTuples]; moved != 0 {
					t.Errorf("broadcast switch still shuffled %d tuples", moved)
				}
			})
		}
	}
}

// TestAdaptiveKeepsGoodPlan: when the observation confirms the plan — T'
// big enough to justify the shuffle, no skew — the hysteresis margin must
// hold the committed plan, with the decision recorded but no switch.
func TestAdaptiveKeepsGoodPlan(t *testing.T) {
	for _, alg := range []Algorithm{Repartition, Zigzag} {
		t.Run(alg.String(), func(t *testing.T) {
			res := runAdaptivePair(t, func() netsim.Bus { return netsim.NewChanBus(256) },
				uniformKeys, 2, 3, 600, 3000, 300, 400, alg)
			if res.Switched {
				t.Fatalf("switched to %q on a well-predicted plan: %s", res.SwitchedTo, res.SwitchReason)
			}
			if res.SwitchReason == "" || !strings.Contains(res.SwitchReason, "keep") {
				t.Errorf("keep decision not explained: %q", res.SwitchReason)
			}
			if res.Metrics[metrics.AdaptDecisions] != 1 || res.Metrics[metrics.AdaptSwitches] != 0 {
				t.Errorf("adapt counters: decisions=%d switches=%d, want 1/0",
					res.Metrics[metrics.AdaptDecisions], res.Metrics[metrics.AdaptSwitches])
			}
		})
	}
}

// TestInjectedFailuresAbortAdaptiveSwitch runs the fault matrix through the
// switch handshake: a worker killed before its observation is sent, during
// the decision exchange, or inside the post-switch data movement must still
// produce one classified error within the deadline and leak nothing. Both
// switch regimes run — the broadcast switch (alignedKeys) and the hybrid
// escalation (hotKeys90), whose post-switch movement is the re-routed
// shuffle plus the replicated hot T' rows — so every kill interleaves with a
// real mid-flight switch. These are the golden table's adaptive fixtures,
// which switch at the engine's K = 8 observation point: no L' row moves
// before the decision, so the kill points count the same handshake
// messages whatever K is (by message 12 the endpoint is past the decision
// and mid-shuffle).
func TestInjectedFailuresAbortAdaptiveSwitch(t *testing.T) {
	regimes := []struct {
		name string
		keys func(*rand.Rand) int
		lN   int
	}{
		{"broadcast", alignedKeys, 20000},
		{"hybrid", hotKeys90, 9000},
	}
	kills := []struct {
		name  string
		kill  string
		after int64
	}{
		{"jen-early", cluster.JENName(1), 2},
		{"jen-mid", cluster.JENName(1), 8},
		{"jen-post-switch", cluster.JENName(1), 12},
		{"db-worker", cluster.DBName(1), 2},
	}
	for _, tr := range adaptTransports {
		for _, alg := range []Algorithm{Repartition, Zigzag} {
			for _, rg := range regimes {
				for _, k := range kills {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", tr.name, alg, rg.name, k.name), func(t *testing.T) {
						baseline := runtime.NumGoroutine()
						ctx, cancel := context.WithTimeout(context.Background(), abortTestDeadline)
						defer cancel()
						f := buildSkewFixtureKeys(t, tr.newBus(), 2, 3, 600, rg.lN, adaptTestConfig(true), rg.keys)
						f.eng.Bus().(netsim.FaultInjector).KillEndpointAfter(k.kill, k.after)
						q := exampleQuery(t, f, 300, 400)
						start := time.Now()
						_, err := f.eng.RunCtx(ctx, q, alg)
						elapsed := time.Since(start)
						if err == nil {
							t.Fatal("query succeeded despite injected failure")
						}
						if !errors.Is(err, netsim.ErrEndpointDown) {
							t.Fatalf("err = %v, want errors.Is netsim.ErrEndpointDown", err)
						}
						if elapsed >= abortTestDeadline {
							t.Fatalf("abort took %v; switch handshake stalled until the deadline", elapsed)
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
