// Command hwbench regenerates the paper's tables and figures.
//
//	hwbench -exp all                 # every experiment
//	hwbench -exp fig8a,table1        # a subset
//	hwbench -scale 1000              # 1/1000 of the paper's data (slower)
//	hwbench -check                   # verify shapes against the paper
//
// Values are calibrated paper-scale execution-time estimates (seconds) or,
// for Table 1, exact tuple counts scaled to paper size.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hybridwh/internal/experiments"
	"hybridwh/internal/prof"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment ids (comma separated) or 'all'")
		scale     = flag.Float64("scale", 10000, "data scale divisor vs the paper")
		dbWorkers = flag.Int("db-workers", 30, "database workers")
		jenWorkrs = flag.Int("jen-workers", 30, "JEN workers (one per DataNode)")
		seed      = flag.Int64("seed", 1, "random seed")
		zipf      = flag.Float64("zipf", 0, "Zipf exponent s for L's foreign keys (0 = uniform, else s > 1)")
		adaptive  = flag.Bool("adaptive", false, "mid-query algorithm switching: re-cost the committed plan against observed scan statistics and switch when it mispredicted")
		check     = flag.Bool("check", false, "verify result shapes against the paper's claims")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		csvDir    = flag.String("csv", "", "also write one <id>.csv per experiment into this directory")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.StarSuite() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []experiments.Experiment
	var starExps []experiments.StarExperiment
	if *expFlag == "all" {
		exps = experiments.All()
		starExps = experiments.StarSuite()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if se, serr := experiments.StarByID(id); serr == nil {
				starExps = append(starExps, se)
				continue
			}
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	cfg := experiments.RunConfig{
		Scale: *scale, DBWorkers: *dbWorkers, JENWorkers: *jenWorkrs, Seed: *seed,
		ZipfS: *zipf, Adaptive: *adaptive,
	}
	failures := 0
	for _, e := range exps {
		start := time.Now()
		rep, err := experiments.Run(e, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *check {
			if bad := rep.CheckShape(); len(bad) > 0 {
				failures += len(bad)
				for _, msg := range bad {
					fmt.Printf("  SHAPE VIOLATION: %s\n", msg)
				}
			} else {
				fmt.Printf("  shape: matches the paper\n")
			}
		}
		fmt.Printf("  (wall time %.1fs)\n\n", time.Since(start).Seconds())
	}
	for _, e := range starExps {
		start := time.Now()
		rep, err := experiments.RunStar(e, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *check {
			if bad := experiments.CheckStarShape(rep); len(bad) > 0 {
				failures += len(bad)
				for _, msg := range bad {
					fmt.Printf("  SHAPE VIOLATION: %s\n", msg)
				}
			} else {
				fmt.Printf("  shape: cascade reduces the shuffle\n")
			}
		}
		fmt.Printf("  (wall time %.1fs)\n\n", time.Since(start).Seconds())
	}
	if failures > 0 {
		stopProf() // the run itself completed; keep its profile
		fmt.Fprintf(os.Stderr, "%d shape violations\n", failures)
		os.Exit(1)
	}
}
