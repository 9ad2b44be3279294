package relop

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hybridwh/internal/mem"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// TestDynamicJoinRegimesMatchInMemory is the exactness property of the
// dynamic hybrid hash join: across budgets that force every degradation
// regime — fully resident, partial eviction, recursive repartitioning, and
// the nested-loop fallback — and with one or three goroutines probing the
// sealed table at once, the match set equals the in-memory join's, and
// every emitted bucket carries a lane aligned with its rows. Each case also
// asserts the regime actually engaged, so a future change cannot quietly
// stop exercising a path.
func TestDynamicJoinRegimesMatchInMemory(t *testing.T) {
	build := mkRows(3000, 120, "b")
	probe := mkRows(900, 240, "p")
	want := joinAll(t, NewHashTable(0, 4), build, probe, 0)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches")
	}
	// The lane of a build row is its serial number, unique per row, so a
	// lane out of step with its bucket shows.
	serial := func(r types.Row) int64 {
		n, _ := strconv.Atoi(strings.TrimPrefix(r[1].Str(), "b-")) // mkRows' tag-%04d
		return int64(n)
	}
	lane := func(rows []types.Row) ([]int64, bool) {
		l := make([]int64, len(rows))
		for i, r := range rows {
			l[i] = serial(r)
		}
		return l, true
	}

	cases := []struct {
		name          string
		budget        int64
		fanout, depth int
		check         func(t *testing.T, s *HashTable)
	}{
		{"resident", 64 << 20, 16, 3, func(t *testing.T, s *HashTable) {
			if s.Evictions != 0 {
				t.Errorf("resident run spilled: evictions=%d", s.Evictions)
			}
		}},
		{"partial-eviction", 96 << 10, 16, 3, func(t *testing.T, s *HashTable) {
			if s.Evictions == 0 {
				t.Error("budget pressure evicted nothing")
			}
			if s.Evictions >= 16 {
				t.Errorf("eviction was not partial: %d of 16 partitions", s.Evictions)
			}
			if s.Repartitions != 0 {
				t.Errorf("unexpected repartitions: %d", s.Repartitions)
			}
		}},
		// A 2-way fan-out with a budget far below a partition's rejoin size
		// forces recursive repartitioning; a generous depth bound keeps the
		// recursion (not the fallback) doing the work.
		{"recursive-repartition", 16 << 10, 2, 6, func(t *testing.T, s *HashTable) {
			if s.Repartitions == 0 {
				t.Error("overflowing partition was not repartitioned")
			}
			if s.NLFallbacks != 0 {
				t.Errorf("recursion bottomed out in nested loop: %d", s.NLFallbacks)
			}
		}},
		{"nested-loop-depth0", 8 << 10, 2, 0, func(t *testing.T, s *HashTable) {
			if s.NLFallbacks == 0 {
				t.Error("depth 0 run never hit the nested-loop fallback")
			}
		}},
	}
	for _, tc := range cases {
		for _, probers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/probers=%d", tc.name, probers), func(t *testing.T) {
				s, err := NewSpillingHashTable(0, tc.budget, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Configure(tc.fanout, tc.depth); err != nil {
					t.Fatal(err)
				}
				s.WithLane(lane)
				for lo := 0; lo < len(build); lo += 100 {
					if err := s.InsertBatch(rowBatch(build[lo : lo+100]...)); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.FinishBuild(); err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				var got []string
				emit := func(p types.Row, bucket []types.Row, l []int64) error {
					mu.Lock()
					defer mu.Unlock()
					if len(l) != len(bucket) {
						return fmt.Errorf("lane of %d values for a bucket of %d rows", len(l), len(bucket))
					}
					for k, r := range bucket {
						if l[k] != serial(r) {
							return fmt.Errorf("lane[%d] = %d, row %v", k, l[k], r)
						}
						got = append(got, fmt.Sprintf("%s|%s", r.String(), p.String()))
					}
					return nil
				}
				var g par.Group
				for w := 0; w < probers; w++ {
					g.Go(func() error {
						for lo := w * 30; lo < len(probe); lo += probers * 30 {
							if err := s.ProbeBuckets(rowBatch(probe[lo:lo+30]...), 0, nil, emit); err != nil {
								return err
							}
						}
						return nil
					})
				}
				if err := g.Wait(); err != nil {
					t.Fatal(err)
				}
				if err := s.Drain(emit); err != nil {
					t.Fatal(err)
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Fatalf("%d matches, in-memory %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("match %d: %q != %q", i, got[i], want[i])
					}
				}
				tc.check(t, s)
			})
		}
	}
}

// TestDynamicJoinSingleHotKey is the degenerate input hashing cannot split:
// every build row shares one join key, the key's rows exceed the budget at
// any depth, and only the block nested-loop fallback can finish. The old
// one-level Grace spill had no recourse here (its fixed 16-way fan-out
// required each spilled partition to fit in memory).
func TestDynamicJoinSingleHotKey(t *testing.T) {
	build := make([]types.Row, 600)
	for i := range build {
		build[i] = types.Row{types.Int32(7), types.String(fmt.Sprintf("hot-%04d", i))}
	}
	probe := []types.Row{
		{types.Int32(7), types.String("p-hit")},
		{types.Int32(8), types.String("p-miss")},
	}
	want := joinAll(t, NewHashTable(0, 4), build, probe, 0)
	if len(want) != 600 {
		t.Fatalf("fixture: %d matches, want 600", len(want))
	}

	s, err := NewSpillingHashTable(0, 4096, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Configure(2, 2); err != nil {
		t.Fatal(err)
	}
	got := joinAll(t, s, build, probe, 0)
	if s.NLFallbacks == 0 {
		t.Fatal("hot key did not reach the nested-loop fallback")
	}
	if s.Repartitions == 0 {
		t.Fatal("hot key skipped the recursion levels")
	}
	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: %q != %q", i, got[i], want[i])
		}
	}
}

// TestSharedBudgetPressureEvicts puts two tables on one query budget: when
// the second table's reservations exhaust the grant, the budget's pressure
// callback must evict partitions from the first (idle) table, and every
// byte must return to the budget after both drains.
func TestSharedBudgetPressureEvicts(t *testing.T) {
	bud := mem.NewBudget(192 << 10)
	build := mkRows(2500, 100, "b")
	probe := mkRows(600, 200, "p")
	want := joinAll(t, NewHashTable(0, 4), build, probe, 0)

	s1 := NewSharedSpillingHashTable(0, bud, t.TempDir())
	// Fill s1 within budget: no eviction yet.
	for _, r := range build {
		if err := s1.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if s1.Evictions != 0 {
		t.Fatal("s1 spilled before any pressure")
	}
	if err := s1.FinishBuild(); err != nil {
		t.Fatal(err)
	}

	// s2's build does not fit alongside s1: its Insert path only evicts its
	// own partitions, so exhaust the budget via a direct Reserve — the
	// pressure callback registered by s1 must shed s1 partitions.
	s2 := NewSharedSpillingHashTable(0, bud, t.TempDir())
	need := bud.Grant() - bud.Used() + 1024
	if err := bud.Reserve(need); err != nil {
		t.Fatalf("pressure reserve: %v", err)
	}
	bud.Release(need) // hand the shed memory back
	if s1.Evictions == 0 {
		t.Fatal("pressure did not evict from the idle table")
	}

	got := joinAll(t, s1, nil, probe, 0)
	if len(got) != len(want) {
		t.Fatalf("post-eviction join: %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: %q != %q", i, got[i], want[i])
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if used := bud.Used(); used != 0 {
		t.Fatalf("budget holds %d bytes after teardown, want 0", used)
	}
}

// TestDynamicJoinReleasesBudget asserts the table returns every reserved
// byte once drained, including across evictions and rejoin reservations.
func TestDynamicJoinReleasesBudget(t *testing.T) {
	bud := mem.NewBudget(64 << 10)
	s := NewSharedSpillingHashTable(0, bud, t.TempDir())
	build := mkRows(2000, 80, "b")
	probe := mkRows(400, 160, "p")
	got := joinAll(t, s, build, probe, 0)
	if len(got) == 0 {
		t.Fatal("no matches")
	}
	if used := bud.Used(); used != 0 {
		t.Fatalf("budget holds %d bytes after drain, want 0", used)
	}
	if bud.Peak() == 0 {
		t.Fatal("peak never moved")
	}
}

// A budgeted table makes its spill directory at its first eviction, not
// before: one that never evicts leaves SpillDir empty through insert, seal,
// probe and drain. One that does evict removes what it made when it
// closes.
func TestBudgetedTableMakesNoSpillDirUntilEviction(t *testing.T) {
	build, probe := mkRows(2000, 80, "b"), mkRows(400, 160, "p")
	for _, c := range []struct {
		name   string
		budget int64
		evicts bool
	}{{"never-evicts", 64 << 20, false}, {"evicts", 32 << 10, true}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			empty := func() bool {
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				return len(ents) == 0
			}
			s := NewSharedSpillingHashTable(0, mem.NewBudget(c.budget), dir)
			if !empty() {
				t.Fatal("the constructor made a spill directory")
			}
			for _, r := range build {
				if err := s.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FinishBuild(); err != nil {
				t.Fatal(err)
			}
			for _, r := range probe {
				if err := s.ProbeBuckets(rowBatch(r), 0, nil, pairsOf(func(_, _ types.Row) error { return nil })); err != nil {
					t.Fatal(err)
				}
			}
			if (s.Evictions > 0) != c.evicts || empty() == c.evicts {
				t.Fatalf("%d evictions, spill directory made: %v", s.Evictions, !empty())
			}
			if err := s.Drain(pairsOf(func(_, _ types.Row) error { return nil })); err != nil {
				t.Fatal(err)
			}
			if !empty() {
				t.Error("the drained table left files in SpillDir")
			}
		})
	}
}
