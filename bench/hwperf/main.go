// Command hwperf is the repository's benchmark: seven workloads over the
// assembled hybrid warehouse, measured end to end (untraced) and layer by
// layer (a separate traced pass with a stage-by-stage replay).
//
//	go run ./bench/hwperf -workload all -seed 1            # end-to-end metrics
//	go run ./bench/hwperf -workload all -seed 1 -trace 1   # per-layer metrics + span files
//	go run ./bench/hwperf -workload all -repeat 10 -o a.json
//	go run ./bench/hwperf -compare a.json b.json
//	go run ./bench/hwperf -spread a.json
//
// Inputs are generated from the seed, every result is verified, every metric
// is printed as "workload metric value unit", and the same goes to JSON
// under bench/results/. The last line of standard output is the one JSON
// object the acceptance driver reads. See bench/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hwperf:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hwperf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace   = fs.String("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics and span file")
		repeat  = fs.Int("repeat", 0, "rerun each workload N times (seeds seed..seed+N-1) and print median, quartiles and spread")
		out     = fs.String("o", "", "run-set file: written by -repeat (default <results>/runs.json); without -repeat each run is appended to it")
		results = fs.String("results", filepath.Join("bench", "results"), "directory for result and trace files")
		cmp     = fs.Bool("compare", false, "compare two run sets given as arguments: base.json new.json")
		spreads = fs.String("spread", "", "print median, quartiles and spread of this run-set file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spreads != "" {
		set, err := readRunSet(*spreads)
		if err != nil {
			return err
		}
		printSpread(os.Stdout, set)
		return nil
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two run-set files")
		}
		base, err := readRunSet(fs.Arg(0))
		if err != nil {
			return err
		}
		cand, err := readRunSet(fs.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, base, cand) {
			return fmt.Errorf("at least one end-to-end metric regressed beyond its bound")
		}
		return nil
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var wls []workload
	if *name == "all" {
		wls = workloads()
	} else {
		wl, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		wls = []workload{wl}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer os.RemoveAll(spillDir) // spill files are gone by now; this drops the empty directories

	sz := sizing{Div: 1, Setups: 3, Traced: 10}
	hdr := newHeader(*seed)
	hdr.print(os.Stdout)
	one := func(wl workload, seed int64) (*runResult, error) {
		if traced {
			return runTraced(ctx, wl, seed, *seconds, sz, *results)
		}
		return runUntraced(ctx, wl, seed, *seconds, sz)
	}

	if *repeat > 0 {
		set := &runSet{Header: hdr}
		for _, wl := range wls {
			for i := 0; i < *repeat; i++ {
				r, err := one(wl, *seed+int64(i))
				if err != nil {
					return fmt.Errorf("%s: %w", wl.def.Name, err)
				}
				fmt.Fprintf(os.Stderr, "# %s run %d/%d done\n", wl.def.Name, i+1, *repeat)
				set.Runs = append(set.Runs, r)
			}
		}
		printSpread(os.Stdout, set)
		path := *out
		if path == "" {
			path = filepath.Join(*results, "runs.json")
		}
		return writeJSON(path, set)
	}

	failed := 0
	for _, wl := range wls {
		r, err := one(wl, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.def.Name, err)
		}
		printResult(os.Stdout, r)
		file := wl.def.Name + ".json"
		if traced {
			file = wl.def.Name + "_trace.json"
		}
		if err := writeJSON(filepath.Join(*results, file), struct {
			Header header `json:"header"`
			*runResult
		}{hdr, r}); err != nil {
			return err
		}
		if *out != "" {
			if err := appendRun(*out, hdr, r); err != nil {
				return err
			}
		}
		line, err := driverLine(r)
		if err != nil {
			return err
		}
		fmt.Println(line)
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d queries failed verification", failed)
	}
	return nil
}
