package relop

import (
	"fmt"
	"sort"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

// joinAll runs a full build+probe+drain cycle and returns the matched
// (buildKey, probePayload) pairs, sorted.
func joinAll(t *testing.T, jt *HashTable, build, probe []types.Row, probeKeyIdx int) []string {
	t.Helper()
	for _, r := range build {
		if err := jt.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jt.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	var got []string
	emit := pairsOf(func(b, p types.Row) error {
		got = append(got, fmt.Sprintf("%s|%s", b.String(), p.String()))
		return nil
	})
	for _, r := range probe {
		if err := jt.ProbeBuckets(rowBatch(r), probeKeyIdx, nil, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := jt.Drain(emit); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got
}

// pairsOf adapts a per-pair emit to the per-bucket emit of ProbeBuckets and
// Drain.
func pairsOf(emit func(buildRow, probeRow types.Row) error) BucketFunc {
	return func(probeRow types.Row, bucket []types.Row, _ []int64) error {
		for _, br := range bucket {
			if err := emit(br, probeRow); err != nil {
				return err
			}
		}
		return nil
	}
}

// rowBatch packs equal-width rows into one batch.
func rowBatch(rows ...types.Row) *batch.Batch {
	b := batch.New(len(rows[0]), len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

func mkRows(n, keys int, tag string) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.Int32(int32(i % keys)),
			types.String(fmt.Sprintf("%s-%04d", tag, i)),
		}
	}
	return rows
}

// TestSpillingMatchesInMemory is the core equivalence property: a spilled
// grace join must produce exactly the matches of the in-memory join.
func TestSpillingMatchesInMemory(t *testing.T) {
	build := mkRows(2000, 150, "b")
	probe := mkRows(500, 300, "p") // half the probe keys have no match

	want := joinAll(t, NewHashTable(0, 4), build, probe, 0)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches")
	}

	// A tiny budget forces heavy spilling.
	sp, err := NewSpillingHashTable(0, 4096, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := joinAll(t, sp, build, probe, 0)
	if sp.Evictions == 0 {
		t.Fatal("expected the table to spill")
	}
	if sp.SpilledBuildRows == 0 || sp.SpilledProbeRows == 0 {
		t.Errorf("spill counters: build=%d probe=%d", sp.SpilledBuildRows, sp.SpilledProbeRows)
	}
	if len(got) != len(want) {
		t.Fatalf("spilled join: %d matches, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: %q != %q", i, got[i], want[i])
		}
	}
}

// TestSpillingBatchesUnderMemoryPressure drives the spill path the way the
// engines do — batch inserts and batch probes — with a budget small enough
// that the partitioned in-memory table is dumped mid-build, and checks the
// grace join against the in-memory reference.
func TestSpillingBatchesUnderMemoryPressure(t *testing.T) {
	build := mkRows(3000, 200, "b")
	probe := mkRows(800, 400, "p")
	toBatches := func(rows []types.Row) []*batch.Batch {
		var bs []*batch.Batch
		for lo := 0; lo < len(rows); lo += 64 {
			hi := lo + 64
			if hi > len(rows) {
				hi = len(rows)
			}
			b := batch.New(len(rows[0]), hi-lo)
			for _, r := range rows[lo:hi] {
				b.AppendRow(r)
			}
			bs = append(bs, b)
		}
		return bs
	}

	want := joinAll(t, NewHashTable(0, 4), build, probe, 0)

	sp, err := NewSpillingHashTable(0, 8192, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range toBatches(build) {
		if err := sp.InsertBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	if sp.Evictions == 0 {
		t.Fatal("expected batch inserts to overflow the budget")
	}
	var got []string
	emit := pairsOf(func(b, p types.Row) error {
		got = append(got, fmt.Sprintf("%s|%s", b.String(), p.String()))
		return nil
	})
	for _, pb := range toBatches(probe) {
		if err := sp.ProbeBuckets(pb, 0, nil, emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Drain(emit); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("spilled batch join: %d matches, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestSpillingStaysInMemoryUnderBudget(t *testing.T) {
	sp, err := NewSpillingHashTable(0, 1<<20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	build := mkRows(100, 10, "b")
	probe := mkRows(50, 10, "p")
	got := joinAll(t, sp, build, probe, 0)
	if sp.Evictions != 0 {
		t.Error("small input should not spill")
	}
	want := joinAll(t, NewHashTable(0, 4), build, probe, 0)
	if len(got) != len(want) {
		t.Fatalf("%d matches, want %d", len(got), len(want))
	}
}

func TestSpillingUsageErrors(t *testing.T) {
	if _, err := NewSpillingHashTable(0, 0, ""); err == nil {
		t.Error("zero budget: want error")
	}
	sp, err := NewSpillingHashTable(0, 1024, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	row := types.Row{types.Int32(1)}
	if err := sp.ProbeBuckets(rowBatch(row), 0, nil, nil); err == nil {
		t.Error("probe before FinishBuild: want error")
	}
	if err := sp.Insert(types.Row{}); err == nil {
		t.Error("key out of range: want error")
	}
	if err := sp.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Insert(row); err == nil {
		t.Error("insert after FinishBuild: want error")
	}
	if err := sp.ProbeBuckets(rowBatch(row), 5, nil, nil); err == nil {
		t.Error("probe key out of range: want error")
	}
}

func TestSpillingEmitErrorPropagates(t *testing.T) {
	sp, err := NewSpillingHashTable(0, 512, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	build := mkRows(500, 20, "b")
	for _, r := range build {
		if err := sp.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.FinishBuild(); err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	fail := func(types.Row, []types.Row, []int64) error { return boom }
	for _, r := range mkRows(100, 20, "p") {
		if err := sp.ProbeBuckets(rowBatch(r), 0, nil, fail); err != nil && err != boom {
			t.Fatal(err)
		}
	}
	if err := sp.Drain(fail); err != boom {
		t.Errorf("Drain err = %v", err)
	}
}
