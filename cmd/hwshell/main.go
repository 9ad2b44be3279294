// Command hwshell is an interactive SQL shell over a freshly assembled
// hybrid warehouse: type two-table join queries against T (database) and L
// (HDFS) and see results, the chosen algorithm, and paper-scale estimates.
//
//	$ go run ./cmd/hwshell
//	hw> \help
//	hw> select extract_group(L.groupByExtractCol), count(*) from T, L
//	    where T.joinKey = L.joinKey and T.corPred <= 100 group by ...;
//	hw> \alg zigzag
//	hw> \explain select ...;
//
// Statements end with ';'. Meta commands start with '\'.
//
// With -star the shell loads a star schema instead (fact on HDFS,
// customer/product/store dimensions in the database); queries are planned
// by the N-way analyzer, and \explain prints the analyzed plan tree
// (\trace toggles the rule-application log on explains).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"hybridwh"
	"hybridwh/internal/core"
	"hybridwh/internal/datagen"
	"hybridwh/internal/format"
)

func main() {
	var (
		scale   = flag.Float64("scale", 100000, "data scale divisor vs the paper")
		workers = flag.Int("workers", 8, "workers on each side")
		fmtName = flag.String("format", format.HWCName, "HDFS format: text | hwc")
		star    = flag.Bool("star", false, "load a star schema and plan with the N-way analyzer")
	)
	flag.Parse()

	w, err := hybridwh.Open(hybridwh.Config{
		DBWorkers: *workers, JENWorkers: *workers,
		Scale: *scale, Format: *fmtName, Seed: 1,
	})
	if err != nil {
		fatal(err)
	}
	defer w.Close()
	var starSpec datagen.Star
	if *star {
		starSpec = datagen.Star{}.WithDefaults()
		fmt.Printf("loading star schema: fact (%d rows, HDFS %s) + %d dimensions (database)...\n",
			starSpec.FactRows, *fmtName, len(starSpec.Dims))
		if err := w.LoadStar(starSpec); err != nil {
			fatal(err)
		}
	} else {
		data := datagen.Data{
			TRows: int64(1.6e9 / *scale),
			LRows: int64(15e9 / *scale),
			Keys:  int64(16e6 / *scale),
		}.WithDefaults()
		fmt.Printf("loading T (%d rows, database) and L (%d rows, HDFS %s)...\n",
			data.TRows, data.LRows, *fmtName)
		if err := w.LoadPaperData(data); err != nil {
			fatal(err)
		}
	}
	fmt.Println(`ready. end statements with ';'. \help for commands.`)

	var forced *core.Algorithm
	explainNext := false
	traceRules := false
	var buf strings.Builder
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("hw> ")
		} else {
			fmt.Print("..> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if buf.Len() == 0 && strings.HasPrefix(line, `\`) {
			switch {
			case line == `\help`:
				fmt.Printf("  \\alg <name>   force an algorithm (%s)\n", algList(", "))
				fmt.Println(`  \alg auto     let the advisor choose (default)`)
				fmt.Println(`  \explain      explain the next statement instead of running it`)
				fmt.Println(`  \trace        toggle the analyzer rule trace on star-mode explains`)
				fmt.Println(`  \tables       show the schemas`)
				fmt.Println(`  \quit         exit`)
			case line == `\quit` || line == `\q`:
				return
			case line == `\tables`:
				if *star {
					fmt.Printf("  %s (HDFS): %s\n", hybridwh.StarFactTable, starSpec.FactSchema())
					for _, d := range starSpec.AllDims() {
						fmt.Printf("  %s (database): %s\n", d.Name, d.Schema())
					}
				} else {
					fmt.Printf("  T (database): %s\n", datagen.TSchema())
					fmt.Printf("  L (HDFS):     %s\n", datagen.LSchema())
				}
			case line == `\explain`:
				explainNext = true
				fmt.Println("  explaining the next statement")
			case line == `\trace`:
				traceRules = !traceRules
				fmt.Printf("  rule trace %v\n", traceRules)
			case strings.HasPrefix(line, `\alg `):
				name := strings.TrimSpace(strings.TrimPrefix(line, `\alg `))
				if name == "auto" {
					forced = nil
					fmt.Println("  advisor mode")
					break
				}
				found := false
				for _, a := range core.Algorithms() {
					if strings.EqualFold(a.String(), name) {
						a := a
						forced = &a
						found = true
						fmt.Printf("  forcing %s\n", a)
						break
					}
				}
				if !found {
					fmt.Printf("  unknown algorithm %q\n", name)
				}
			default:
				fmt.Printf("  unknown command %q (try \\help)\n", line)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		sql := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		run(w, sql, forced, explainNext, *star, traceRules)
		explainNext = false
		prompt()
	}
}

func run(w *hybridwh.Warehouse, sql string, forced *core.Algorithm, explain, star, traceRules bool) {
	var opts []hybridwh.Option
	if forced != nil {
		opts = append(opts, hybridwh.WithAlgorithm(*forced))
	}
	if explain {
		var out string
		var err error
		if star {
			out, err = w.ExplainStar(sql, traceRules)
		} else {
			out, err = w.Explain(sql, opts...)
		}
		if err != nil {
			fmt.Printf("  error: %v\n", err)
			return
		}
		fmt.Print(out)
		return
	}
	res, err := w.Query(sql, opts...)
	if err != nil {
		fmt.Printf("  error: %v\n", err)
		return
	}
	if res.Edges != nil {
		fmt.Printf("  -- %s", res.Advice)
		for _, ed := range res.Edges {
			if ed.Switched {
				fmt.Printf("\n  -- edge %s switched mid-query: %s", ed.Dim, ed.SwitchReason)
			}
		}
		fmt.Println()
	} else {
		fmt.Printf("  -- %s", res.Algorithm)
		if res.Advice != "" {
			fmt.Printf(" (%s)", res.Advice)
		}
		fmt.Printf("\n  -- est. paper-scale %.0fs\n", res.EstimatedTime.Total)
	}
	fmt.Printf("  %s\n", res.Schema)
	limit := len(res.Rows)
	if limit > 20 {
		limit = 20
	}
	for _, r := range res.Rows[:limit] {
		fmt.Printf("  %s\n", r)
	}
	if len(res.Rows) > limit {
		fmt.Printf("  ... %d more rows\n", len(res.Rows)-limit)
	}
	fmt.Printf("  (%d rows)\n", len(res.Rows))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// algList names every algorithm \alg accepts, joined by sep.
func algList(sep string) string {
	var names []string
	for _, a := range core.Algorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, sep)
}
