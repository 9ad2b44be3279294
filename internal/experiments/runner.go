package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hybridwh"
	"hybridwh/internal/datagen"
	"hybridwh/internal/format"
	"hybridwh/internal/metrics"
)

// RunConfig sizes an experiment run. The defaults execute the paper's
// 30×30-worker topology over 1/10000-scale data; the final results in
// EXPERIMENTS.md use Scale=1000.
type RunConfig struct {
	Scale      float64 // data scale divisor vs the paper (default 10000)
	DBWorkers  int     // default 30 (the paper's topology)
	JENWorkers int     // default 30
	Seed       int64
	// ZipfS skews L's foreign keys (datagen.Data.ZipfS): 0 = the paper's
	// uniform draw, s > 1 = Zipf(s) heavy hitters.
	ZipfS float64
	// Adaptive enables mid-query algorithm switching
	// (core.Config.AdaptiveSwitch): the engine re-costs the committed plan
	// against the first scanned batches and switches when it mispredicted.
	Adaptive bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Scale <= 0 {
		c.Scale = 10000
	}
	if c.DBWorkers <= 0 {
		c.DBWorkers = 30
	}
	if c.JENWorkers <= 0 {
		c.JENWorkers = 30
	}
	return c
}

// data derives the dataset size from the scale.
func (c RunConfig) data() datagen.Data {
	return datagen.Data{
		TRows:    int64(1.6e9 / c.Scale),
		LRows:    int64(15e9 / c.Scale),
		Keys:     int64(16e6 / c.Scale),
		Seed:     c.Seed + 7,
		DateDays: 30,
		Groups:   1000,
		ZipfS:    c.ZipfS,
	}
}

// CellResult is one x-axis point: series name → value (seconds for time
// figures, paper-scale tuple counts for Table 1).
type CellResult struct {
	Label  string
	Values map[string]float64
}

// Report is a completed experiment.
type Report struct {
	Exp    Experiment
	Config RunConfig
	Series []string // column order
	Rows   []CellResult
}

// Run executes one experiment.
func Run(exp Experiment, cfg RunConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	formats := []string{exp.Format}
	if exp.Format == "both" {
		formats = []string{format.HWCName, format.TextName}
	}

	rep := &Report{Exp: exp, Config: cfg}
	raw := make([]map[string]float64, len(exp.Cells))
	for i := range raw {
		raw[i] = map[string]float64{}
	}

	for _, f := range formats {
		w, err := hybridwh.Open(hybridwh.Config{
			DBWorkers:      cfg.DBWorkers,
			JENWorkers:     cfg.JENWorkers,
			Scale:          cfg.Scale,
			Format:         f,
			Seed:           cfg.Seed,
			AdaptiveSwitch: cfg.Adaptive,
		})
		if err != nil {
			return nil, err
		}
		if err := w.LoadPaperData(cfg.data()); err != nil {
			w.Close()
			return nil, err
		}
		for ci, cell := range exp.Cells {
			wl, adjusted, err := datagen.SolveNearest(w.Data(), cell.Sel)
			if err != nil {
				w.Close()
				return nil, fmt.Errorf("%s %q: %w", exp.ID, cell.Label, err)
			}
			if adjusted != cell.Sel {
				exp.Cells[ci].Label = fmt.Sprintf("%s (ST'→%.3f)", cell.Label, adjusted.ST)
			}
			sql := hybridwh.PaperQuerySQL(wl)
			for _, alg := range exp.Algs {
				res, err := w.Query(sql,
					hybridwh.WithAlgorithm(alg),
					hybridwh.WithCardHint(hybridwh.ExpectedLPrimeRows(wl)))
				if err != nil {
					w.Close()
					return nil, fmt.Errorf("%s %q %s: %w", exp.ID, cell.Label, alg, err)
				}
				name := alg.String()
				if exp.Format == "both" {
					name = f // fig14 series are the formats themselves
				}
				if exp.Counts {
					raw[ci]["shuffled "+name] = float64(res.Counters[metrics.JENShuffleTuples]) * cfg.Scale
					raw[ci]["DB sent "+name] = float64(res.Counters[metrics.DBSentTuples]) * cfg.Scale
				} else {
					raw[ci][name] = res.EstimatedTime.Total
				}
			}
		}
		w.Close()
	}

	// Condense best-of series if requested.
	for ci := range raw {
		if len(exp.Best) == 0 {
			break
		}
		condensed := map[string]float64{}
		for _, b := range exp.Best {
			best := math.Inf(1)
			for _, a := range b.Over {
				if v, ok := raw[ci][a.String()]; ok && v < best {
					best = v
				}
			}
			condensed[b.Name] = best
		}
		raw[ci] = condensed
	}

	// Stash the cell selectivities under hidden keys for the shape checks.
	for ci, cell := range exp.Cells {
		raw[ci]["__st"] = cell.Sel.ST
		raw[ci]["__sl"] = cell.Sel.SL
	}

	// Stable series order: declaration order.
	seen := map[string]bool{}
	if len(exp.Best) > 0 {
		for _, b := range exp.Best {
			rep.Series = append(rep.Series, b.Name)
			seen[b.Name] = true
		}
	} else if exp.Format == "both" {
		rep.Series = []string{format.TextName, format.HWCName}
		seen[format.TextName], seen[format.HWCName] = true, true
	} else {
		for _, a := range exp.Algs {
			if exp.Counts {
				for _, p := range []string{"shuffled ", "DB sent "} {
					rep.Series = append(rep.Series, p+a.String())
					seen[p+a.String()] = true
				}
			} else {
				rep.Series = append(rep.Series, a.String())
				seen[a.String()] = true
			}
		}
	}
	// Any stragglers, sorted (hidden "__" keys stay out of the rendering).
	var extra []string
	for k := range raw[0] {
		if !seen[k] && !strings.HasPrefix(k, "__") {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	rep.Series = append(rep.Series, extra...)

	for ci, cell := range exp.Cells {
		rep.Rows = append(rep.Rows, CellResult{Label: cell.Label, Values: raw[ci]})
	}
	return rep, nil
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Exp.Title)
	if r.Exp.Note != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Exp.Note)
	}
	unit := "s"
	if r.Exp.Counts {
		unit = "tuples"
	}
	if r.Exp.Unit != "" {
		fmt.Fprintf(&b, "  (values in %s)\n", r.Exp.Unit)
	} else {
		fmt.Fprintf(&b, "  (scale 1/%g; values in %s at paper scale)\n", r.Config.Scale, unit)
	}

	width := 14
	for _, s := range r.Series {
		if len(s)+2 > width {
			width = len(s) + 2
		}
	}
	labelW := 16
	for _, row := range r.Rows {
		if len(row.Label)+2 > labelW {
			labelW = len(row.Label) + 2
		}
	}
	fmt.Fprintf(&b, "  %-*s", labelW, "")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%*s", width, s)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s", labelW, row.Label)
		for _, s := range r.Series {
			v, ok := row.Values[s]
			if !ok {
				fmt.Fprintf(&b, "%*s", width, "-")
				continue
			}
			switch {
			case r.Exp.Counts:
				fmt.Fprintf(&b, "%*s", width, fmtCount(v))
			case r.Exp.Unit != "":
				fmt.Fprintf(&b, "%*.2f", width, v)
			default:
				fmt.Fprintf(&b, "%*.0f", width, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.0fM", v/1e6)
	case v >= 1e6:
		return fmt.Sprintf("%.0fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// CSV renders the report as comma-separated values for plotting: a header
// of "cell" plus the series names, then one line per cell.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("cell")
	for _, s := range r.Series {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s, ",", ";"))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.ReplaceAll(row.Label, ",", ";"))
		for _, s := range r.Series {
			if v, ok := row.Values[s]; ok {
				fmt.Fprintf(&b, ",%.3f", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// value fetches a series value for a labelled cell (NaN when absent).
func (r *Report) value(label, series string) float64 {
	for _, row := range r.Rows {
		if row.Label == label {
			if v, ok := row.Values[series]; ok {
				return v
			}
		}
	}
	return math.NaN()
}
