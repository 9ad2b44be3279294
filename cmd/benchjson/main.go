// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark record. `make bench` pipes the core micro-benchmarks through it
// to produce BENCH_core.json, the regression gate for the engine's
// whole-query benchmarks (end-to-end and per-layer performance is
// bench/hwperf's job, see BENCHMARK.json).
//
//	go test -bench BenchmarkScanFilterJoin ./internal/core/ | benchjson -o BENCH_core.json
//
// Each benchmark result line ("BenchmarkName-8  3  419695899 ns/op  309748
// rows/s") becomes one entry with its ns/op and any extra ReportMetric
// units.
//
// With -compare the parsed results are additionally checked against a
// previously recorded report: every benchmark present in both must keep its
// ratio metric at or above tolerance × the recorded value, or the command
// exits nonzero. `make bench-smoke` uses this as the CI regression gate
// against the committed BENCH_core.json:
//
//	go test -bench BenchmarkScanFilterJoin ./internal/core/ \
//		| benchjson -compare BENCH_core.json -tolerance 0.85
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	metric := flag.String("ratio-metric", "rows/s", "metric -compare gates on")
	compare := flag.String("compare", "", "baseline report to compare against; exits nonzero on regression")
	tolerance := flag.Float64("tolerance", 0.85, "minimum new/baseline ratio of the ratio metric allowed by -compare")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare != "" {
		if err := compareBaseline(rep, *compare, *tolerance, *metric); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// metricValue extracts a result's ratio metric, falling back to op/s.
func metricValue(r result, metric string) float64 {
	if v, ok := r.Metrics[metric]; ok {
		return v
	}
	if r.NsPerOp > 0 {
		return 1e9 / r.NsPerOp
	}
	return 0
}

// compareBaseline checks every benchmark present in both the new report and
// the baseline file: its ratio metric must be at least tolerance × the
// recorded value. Benchmarks only on one side are ignored (new benchmarks
// appear, retired ones disappear); all regressions are reported, not just the
// first.
func compareBaseline(rep *report, path string, tolerance float64, metric string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	old := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = metricValue(r, metric)
	}
	var failures []string
	compared := 0
	for _, r := range rep.Results {
		ov, ok := old[r.Name]
		if !ok || ov <= 0 {
			continue
		}
		compared++
		nv := metricValue(r, metric)
		if nv < tolerance*ov {
			failures = append(failures,
				fmt.Sprintf("%s: %s %.0f < %.2f × baseline %.0f", r.Name, metric, nv, tolerance, ov))
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %s %.0f vs baseline %.0f (ok)\n", r.Name, metric, nv, ov)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no common benchmarks between stdin and %s", path)
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression vs %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	return nil
}

func parse(sc *bufio.Scanner) (*report, error) {
	rep := &report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"):
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return rep, nil
}

// parseResult decodes one result line: name, iteration count, then
// value/unit pairs ("419695899 ns/op 309748 rows/s").
func parseResult(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return result{}, false
	}
	name := f[0]
	// Strip the GOMAXPROCS suffix gotest appends ("-8").
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		if f[i+1] == "ns/op" {
			r.NsPerOp = v
		} else {
			r.Metrics[f[i+1]] = v
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}
