package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// header records where and on what a result was measured.
type header struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newHeader(seed int64) header {
	h := header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown", Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# hwperf nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s seed=%d\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.CPU, h.Commit, h.Seed)
}

// runSet is what -repeat writes and -compare reads.
type runSet struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult prints every metric as "workload metric value unit", then
// the notes and the verification outcome.
func printResult(w io.Writer, r *runResult) {
	for _, name := range sortedNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "# %s %s = %s\n", r.Workload, k, r.Notes[k])
	}
	fmt.Fprintf(w, "# %s samples=%d attempted=%d failed=%d\n", r.Workload, r.Samples, r.Attempted, r.Failed)
	if r.FirstDiff != "" {
		fmt.Fprintf(w, "# %s first difference: %s\n", r.Workload, r.FirstDiff)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: exactly the end-to-end metrics of an untraced run, or
// exactly the per-layer metrics of a traced one.
func driverLine(r *runResult) (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]metricValue{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("hwperf: %s did not report %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = m
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("hwperf: encode result: %w", err)
	}
	return string(data), nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("hwperf: encode %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("hwperf: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("hwperf: %w", err)
	}
	return nil
}

func readRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hwperf: %w", err)
	}
	var rs runSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("hwperf: %s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one run to a run-set file, creating it if need be, so runs
// made one process at a time (as the driver makes them) can be compared.
func appendRun(path string, h header, r *runResult) error {
	set := &runSet{Header: h}
	if _, err := os.Stat(path); err == nil {
		if set, err = readRunSet(path); err != nil {
			return err
		}
	}
	set.Runs = append(set.Runs, r)
	return writeJSON(path, set)
}

// quartiles are Python's statistics.quantiles(values, n=4): the exclusive
// method, the one the acceptance driver applies to repeated runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	ld := len(data)
	if ld < 2 {
		if ld == 1 {
			return data[0], data[0], data[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// collect groups a run set's values by workload and metric.
func (rs *runSet) collect() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSpread prints median, quartiles and spread per workload × metric.
func printSpread(w io.Writer, rs *runSet) {
	vals := rs.collect()
	fmt.Fprintf(w, "%-17s %-34s %4s %12s %12s %12s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, wd := range workloadDefs {
		byMetric := vals[wd.Name]
		for _, tbl := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range tbl {
				v := byMetric[d.Name]
				if len(v) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(v)
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.2f", d.Bound)
				}
				fmt.Fprintf(w, "%-17s %-34s %4d %12.6g %12.6g %12.6g %8.4f %6s\n", wd.Name, d.Name, len(v), q1, q2, q3, spread(v), bound)
			}
		}
	}
}

// compare applies each end-to-end metric's bound to two run sets, one row
// per workload × metric with the base and the ratio. A metric whose own
// run-to-run spread exceeds its bound on either side is unresolved, not
// unchanged. It reports whether any metric regressed.
func compare(w io.Writer, base, cand *runSet) (regressed bool) {
	a, b := base.collect(), cand.collect()
	fmt.Fprintf(w, "%-17s %-20s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "base", "new", "ratio", "spread_a", "spread_b", "bound", "verdict")
	for _, wd := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a[wd.Name][d.Name], b[wd.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			sa, sb := spread(va), spread(vb)
			ratio := 0.0
			if ma != 0 {
				ratio = mb / ma
			}
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case len(va) > 1 && len(vb) > 1 && d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed = true
			case -worse > d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-17s %-20s %12.6g %12.6g %8.4f %8.4f %8.4f %6.2f  %s\n", wd.Name, d.Name, ma, mb, ratio, sa, sb, d.Bound, verdict)
		}
	}
	return regressed
}
