// Command hwquery runs one SQL query end-to-end on a freshly assembled
// hybrid warehouse and prints the plan, the chosen algorithm, the result
// rows and the measured counters with paper-scale time estimates.
//
//	hwquery -alg zigzag -sigmaT 0.1 -sigmaL 0.4
//	hwquery -sql "select ... from T, L where ..." -explain
//
// With -star the warehouse loads a star schema instead (fact on HDFS,
// customer/product/store dimensions in the database) and queries are
// planned by the rule-based N-way analyzer; -explain then prints the
// analyzed plan tree, and -trace appends the rule-application log.
//
//	hwquery -star -explain -trace
//	hwquery -star -sql "select f.grp, count(*) from fact f join customer c on ... group by f.grp"
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
	"hybridwh/internal/format"
	"hybridwh/internal/prof"
)

func main() {
	var (
		sqlFlag = flag.String("sql", "", "SQL to run (default: the paper's example query)")
		algFlag = flag.String("alg", "", "force algorithm: "+algList(" | ")+" (default: advisor)")
		sigmaT  = flag.Float64("sigmaT", 0.1, "σ_T for the default query")
		sigmaL  = flag.Float64("sigmaL", 0.4, "σ_L for the default query")
		st      = flag.Float64("st", 0.2, "S_T' for the default query")
		sl      = flag.Float64("sl", 0.1, "S_L' for the default query")
		scale   = flag.Float64("scale", 20000, "data scale divisor vs the paper")
		fmtName = flag.String("format", format.HWCName, "HDFS format: text | hwc")
		explain = flag.Bool("explain", false, "print the plan and exit without running")
		star    = flag.Bool("star", false, "load a star schema and plan with the N-way analyzer")
		trace   = flag.Bool("trace", false, "with -star -explain: append the analyzer rule trace")
		workers = flag.Int("workers", 30, "workers on each side")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	w, err := hybridwh.Open(hybridwh.Config{
		DBWorkers: *workers, JENWorkers: *workers,
		Scale: *scale, Format: *fmtName, Seed: 1,
	})
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	sql := *sqlFlag
	var opts []hybridwh.Option
	if *star {
		s := datagen.Star{}.WithDefaults()
		fmt.Printf("loading star schema: fact (%d rows, HDFS %s) + %d dimensions (database)...\n",
			s.FactRows, *fmtName, len(s.Dims))
		if err := w.LoadStar(s); err != nil {
			fatal(err)
		}
		if sql == "" {
			sql = starExampleSQL
		}
	} else {
		data := datagen.Data{
			TRows: int64(1.6e9 / *scale),
			LRows: int64(15e9 / *scale),
			Keys:  int64(16e6 / *scale),
		}
		fmt.Printf("loading T (%d rows) into the database and L (%d rows) onto HDFS (%s)...\n",
			data.WithDefaults().TRows, data.WithDefaults().LRows, *fmtName)
		if err := w.LoadPaperData(data); err != nil {
			fatal(err)
		}
		if sql == "" {
			wl, err := datagen.Solve(w.Data(), datagen.Selectivities{
				SigmaT: *sigmaT, SigmaL: *sigmaL, ST: *st, SL: *sl,
			})
			if err != nil {
				fatal(err)
			}
			sql = hybridwh.PaperQuerySQL(wl)
			opts = append(opts, hybridwh.WithCardHint(hybridwh.ExpectedLPrimeRows(wl)), hybridwh.WithSigmaL(*sigmaL))
		}
	}

	if *algFlag != "" {
		alg, err := parseAlg(*algFlag)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, hybridwh.WithAlgorithm(alg))
	}

	if *explain {
		var out string
		if *star {
			out, err = w.ExplainStar(sql, *trace)
		} else {
			out, err = w.Explain(sql, opts...)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	fmt.Printf("query:%s\n\n", strings.ReplaceAll(sql, "\n", "\n  "))
	res, err := w.Query(sql, opts...)
	if err != nil {
		fatal(err)
	}
	if res.Edges != nil {
		fmt.Printf("%s\n", res.Advice)
		for i, ed := range res.Edges {
			note := ""
			if ed.Bloom {
				note = ", Bloom cascaded into the fact scan"
			}
			if ed.Switched {
				note += fmt.Sprintf(" [switched mid-query: %s]", ed.SwitchReason)
			}
			fmt.Printf("  edge %d: %s — %s%s\n", i, ed.Dim, ed.Algorithm, note)
		}
		fmt.Println()
	} else {
		fmt.Printf("algorithm: %s", res.Algorithm)
		if res.Advice != "" {
			fmt.Printf("  (advisor: %s)", res.Advice)
		}
		fmt.Println()
		if strings.HasPrefix(res.Algorithm.String(), "db") {
			fmt.Printf("db final-join strategy: %s\n", res.DBJoinStrategy)
		}
		fmt.Printf("estimated paper-scale time: %s\n\n", res.EstimatedTime)
	}

	fmt.Printf("result (%s): %d groups\n", res.Schema, len(res.Rows))
	max := len(res.Rows)
	if max > 10 {
		max = 10
	}
	for _, r := range res.Rows[:max] {
		fmt.Printf("  %s\n", r)
	}
	if len(res.Rows) > max {
		fmt.Printf("  ... %d more\n", len(res.Rows)-max)
	}

	fmt.Println("\nkey counters (simulation scale):")
	keys := make([]string, 0, len(res.Counters))
	for k := range res.Counters {
		if strings.HasSuffix(k, ".max") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v := res.Counters[k]; v != 0 {
			fmt.Printf("  %-28s %d\n", k, v)
		}
	}
}

// starExampleSQL is the default -star query: a 3-way star join with
// selective dimension predicates, the shape the analyzer plans bushily.
const starExampleSQL = `select f.grp, count(*), sum(f.measure)
from fact f
join customer c on f.fk_customer = c.key
join product p on f.fk_product = p.key
join store s on f.fk_store = s.key
where c.attr < 300 and p.attr < 500 and s.attr < 700
group by f.grp`

// algList names every algorithm -alg accepts, joined by sep.
func algList(sep string) string {
	var names []string
	for _, a := range core.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, sep)
}

func parseAlg(s string) (core.Algorithm, error) {
	for _, a := range core.Algorithms() {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
