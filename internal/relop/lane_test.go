package relop

import (
	"sync/atomic"
	"testing"

	"hybridwh/internal/types"
)

// valueLane is a lane function reading column 1 of every row; a NULL there
// declines the partition, as a lane function does for a value it cannot
// take. calls counts its invocations.
func valueLane(calls *atomic.Int64) LaneFunc {
	return func(rows []types.Row) ([]int64, bool) {
		calls.Add(1)
		lane := make([]int64, len(rows))
		for i, r := range rows {
			if r[1].IsNull() {
				return nil, false
			}
			lane[i] = r[1].I
		}
		return lane, true
	}
}

// laneRows are n rows (key, value int64) over keys distinct keys, each value
// unique.
func laneRows(n, keys int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int64(int64(i % keys)), types.Int64(int64(1000 + i))}
	}
	return rows
}

// checkLane reports whether lane is aligned with bucket: element k is row
// k's value.
func checkLane(t *testing.T, bucket []types.Row, lane []int64) {
	t.Helper()
	if len(lane) != len(bucket) {
		t.Fatalf("lane of %d values for a bucket of %d rows", len(lane), len(bucket))
	}
	for k, r := range bucket {
		if lane[k] != r[1].I {
			t.Fatalf("lane[%d] = %d, row %v", k, lane[k], r)
		}
	}
}

// After Build the lane of every bucket is aligned with its rows — at a
// sequential and a parallel build size — and after an insert unseals the
// table and a second Build lays it out again, the lane is recomputed and
// aligned again. A table without a lane function has no lanes.
func TestHashTableLaneAlignedWithGroupedRows(t *testing.T) {
	for _, n := range []int{500, parallelBuildRows + 500} {
		var calls atomic.Int64
		h := NewHashTable(0, 4).WithLane(valueLane(&calls))
		rows := laneRows(n, 37)
		for _, r := range rows[:n-10] {
			if err := h.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string) {
			for k := int64(0); k < 37; k++ {
				bucket, lane := h.ProbeLane(k)
				if len(bucket) == 0 {
					t.Fatalf("%s: key %d has no bucket", stage, k)
				}
				checkLane(t, bucket, lane)
			}
		}
		h.Build()
		check("first build")
		if got := calls.Load(); got != 4 {
			t.Errorf("lane function ran %d times for 4 partitions", got)
		}
		if err := h.InsertBatch(rowBatch(rows[n-10:]...)); err != nil {
			t.Fatal(err)
		}
		for i := range h.parts {
			if h.parts[i].lane != nil {
				t.Fatal("unseal kept a lane")
			}
		}
		h.Build()
		check("rebuild")
		if got := calls.Load(); got != 8 {
			t.Errorf("lane function ran %d times over two builds of 4 partitions", got)
		}
		if total := h.Len(); total != int64(n) {
			t.Errorf("Len = %d, want %d", total, n)
		}
	}
	plain := NewHashTable(0, 4)
	for _, r := range laneRows(50, 5) {
		if err := plain.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if bucket, lane := plain.ProbeLane(3); len(bucket) == 0 || lane != nil {
		t.Errorf("table without a lane function: bucket %d rows, lane %v", len(bucket), lane)
	}
}

// A partition whose lane function declines, or returns a lane of the wrong
// length, has no lane; the other partitions keep theirs.
func TestHashTableLaneDeclinedPerPartition(t *testing.T) {
	var calls atomic.Int64
	h := NewHashTable(0, 4).WithLane(valueLane(&calls))
	rows := laneRows(400, 40)
	rows[7][1] = types.Null // declines key 7's partition
	for _, r := range rows {
		if err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	h.Build()
	declined := h.part(7)
	for k := int64(0); k < 40; k++ {
		bucket, lane := h.ProbeLane(k)
		if h.part(k) == declined {
			if lane != nil {
				t.Errorf("key %d in the declined partition has a lane", k)
			}
			continue
		}
		checkLane(t, bucket, lane)
	}
	short := NewHashTable(0, 2).WithLane(func(rows []types.Row) ([]int64, bool) {
		return make([]int64, len(rows)-1), true
	})
	for _, r := range laneRows(40, 4) {
		if err := short.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, lane := short.ProbeLane(1); lane != nil {
		t.Error("a lane shorter than its partition was kept")
	}
}

// Every hash table a spilling table seals carries the lane: resident
// partitions probed in ProbeBuckets, Drain's hash rejoins and its block
// nested-loop chunks. Each regime is checked to have emitted buckets, all
// with aligned lanes, and every build row to have been joined once.
func TestSpillingHashTableLaneOnEveryTable(t *testing.T) {
	build := laneRows(600, 30)
	for i := 0; i < 300; i++ {
		// A hot key no repartition can split.
		build = append(build, types.Row{types.Int64(0), types.Int64(int64(5000 + i))})
	}
	for _, c := range []struct {
		name          string
		budget        int64
		fanout, depth int
		// What the regimes must show: resident pairs, pairs drained from
		// a partition other than the hot key's (with a repartition level
		// left, a hash rejoin: those partitions fit the budget) and
		// nested-loop passes.
		resident, rejoin, nested bool
	}{
		{"resident", 1 << 20, 4, 1, true, false, false},
		{"rejoin-and-nested-loop", 12 << 10, 4, 1, true, true, true},
		{"nested-loop-only", 1, 2, 0, false, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			s, err := NewSpillingHashTable(0, c.budget, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Configure(c.fanout, c.depth); err != nil {
				t.Fatal(err)
			}
			s.WithLane(valueLane(&calls))
			for _, r := range build {
				if err := s.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FinishBuild(); err != nil {
				t.Fatal(err)
			}
			probed, drained, rejoined := 0, 0, 0
			for k := int64(0); k < 40; k++ {
				err := s.ProbeBuckets(rowBatch(types.Row{types.Int64(k)}), 0, nil, func(_ types.Row, bucket []types.Row, lane []int64) error {
					checkLane(t, bucket, lane)
					probed += len(bucket)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			hot := s.part(0)
			err = s.Drain(func(p types.Row, bucket []types.Row, lane []int64) error {
				checkLane(t, bucket, lane)
				drained += len(bucket)
				if c.depth > 0 && s.part(p[0].I) != hot {
					rejoined += len(bucket)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if probed+drained != len(build) {
				t.Errorf("%d pairs, want %d (every build row matches one probe)", probed+drained, len(build))
			}
			if (probed > 0) != c.resident || (rejoined > 0) != c.rejoin || (s.NLFallbacks > 0) != c.nested {
				t.Errorf("resident pairs %d, rejoined pairs %d, nested loops %d", probed, rejoined, s.NLFallbacks)
			}
			if calls.Load() == 0 {
				t.Error("the lane function never ran")
			}
		})
	}
}
