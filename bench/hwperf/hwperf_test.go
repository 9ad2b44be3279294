package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"hybridwh/internal/types"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON: the code's tables and the driver's file are
// the same vocabulary, and every name fits the driver's grammar.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds: JSON %d, code %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\nJSON %+v\ncode %+v", b.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nJSON %+v\ncode %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nJSON %+v\ncode %+v", b.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// smokeSizing shrinks D by 25 (1/50 of the issue's D1) and measures three
// queries, or one full cycle where the cycle is longer.
func smokeSizing(wl workload) sizing {
	sz := sizing{Div: 25, Cycles: 3, Setups: 1, Traced: 3}
	if len(wl.cycle) > 1 {
		sz.Cycles = 1
	}
	return sz
}

// checkDriverLine asserts the run emitted exactly the declared names, once
// each, with finite values.
func checkDriverLine(t *testing.T, r *runResult, defs []metricDef) {
	t.Helper()
	line, err := driverLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("driver line misses a key: %s", line)
	}
	if !*out.Correct || *out.Failed != 0 || *out.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", r.Workload, *out.Correct, *out.Attempted, *out.Failed, r.FirstDiff)
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", r.Workload, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", r.Workload, d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", r.Workload, d.Name, m.Value)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s unit %q, declared %q", r.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs all seven workloads, untraced and traced, at
// 1/50 of the issue's size.
func TestSmokeEveryWorkload(t *testing.T) {
	// Spill files land in the test's own directory, not the package's.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) // back to where the test started
	ctx := context.Background()
	for _, wl := range workloads() {
		sz := smokeSizing(wl)
		r, err := runUntraced(ctx, wl, 1, 1, sz)
		if err != nil {
			t.Fatalf("%s untraced: %v", wl.def.Name, err)
		}
		checkDriverLine(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.def.Name, d.Name, r.Metrics[d.Name].Value)
			}
		}

		dir := t.TempDir()
		r, err = runTraced(ctx, wl, 1, 1, sz, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.def.Name, err)
		}
		checkDriverLine(t, r, perLayer)
		checkTraceFile(t, filepath.Join(dir, "trace_"+wl.def.Name+".json"))
	}
}

// checkTraceFile asserts every span's parent chain ends at a root.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		cur, hops := s, 0
		for cur.Parent != 0 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %d (%s): parent %d is not in the file", cur.ID, cur.Name, cur.Parent)
			}
			if p.Query != s.Query {
				t.Errorf("span %d (%s) has query %q, its ancestor %d has %q", s.ID, s.Name, s.Query, p.ID, p.Query)
			}
			cur = p
			if hops++; hops > len(spans) {
				t.Fatalf("span %d (%s): parent chain loops", s.ID, s.Name)
			}
		}
	}
}

// TestVerificationCatchesCorruptedRow: one changed cell is a failure and the
// report names the row.
func TestVerificationCatchesCorruptedRow(t *testing.T) {
	rows := []types.Row{
		{types.Int64(1), types.Int64(10)},
		{types.Int64(2), types.Int64(20)},
		{types.Int64(3), types.Int64(30)},
	}
	q := &query{spec: querySpec{label: "q"}, ref: canonical(rows)}
	good := sample{q: q, rows: []types.Row{rows[2], rows[0], rows[1]}} // order must not matter
	bad := sample{ticket: 1, q: q, rows: []types.Row{rows[0], {types.Int64(2), types.Int64(21)}, rows[2]}}
	short := sample{ticket: 2, q: q, rows: rows[:2]}
	r := &runResult{}
	verify([]sample{good, bad, short}, r)
	if r.Attempted != 3 || r.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", r.Attempted, r.Failed)
	}
	if want := "q (ticket 1): row 1: got 2|21, want 2|20"; r.FirstDiff != want {
		t.Errorf("first difference %q, want %q", r.FirstDiff, want)
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}
