package hybridwh

import (
	"context"
	"fmt"
	"strings"

	"hybridwh/internal/analyzer"
	"hybridwh/internal/core"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/datagen"
	"hybridwh/internal/jen"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/plan"
	"hybridwh/internal/sched"
	"hybridwh/internal/sqlparse"
	"hybridwh/internal/types"
)

// This file is the warehouse's N-way star/snowflake mode: the fact table
// lives on HDFS, the dimensions in the database, and queries over them are
// planned by the rule-based analyzer (internal/analyzer) into bushy
// multi-join plans that the engine's RunMulti executor runs with cascaded
// semi-join reduction. A warehouse is either in two-table paper mode
// (LoadPaperData) or in star mode (LoadStar), never both.

// StarFactTable is the HDFS fact table's name in star mode.
const StarFactTable = "fact"

// LoadStar generates and loads a star/snowflake dataset: the fact table
// onto HDFS in the configured format, and every dimension (including
// snowflake sub-dimensions) into the database, hash-distributed on its key
// with statistics and an (attr, key) index for index-only Bloom builds.
func (w *Warehouse) LoadStar(s datagen.Star) error {
	if w.dbTable != "" || w.starFact != "" {
		return fmt.Errorf("hybridwh: warehouse already loaded")
	}
	s = s.WithDefaults()
	if s.Seed == 0 {
		s.Seed = w.cfg.Seed + 1
	}
	for _, d := range s.AllDims() {
		schema := d.Schema()
		tbl, err := w.db.CreateTable(d.Name, schema, schema.MustColIndex("key"))
		if err != nil {
			return err
		}
		var rows []types.Row
		if err := s.GenDim(d.Name, func(r types.Row) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			return err
		}
		if err := tbl.Load(rows); err != nil {
			return err
		}
		tbl.BuildStats(64)
		attr := schema.MustColIndex("attr")
		key := schema.MustColIndex("key")
		if err := tbl.CreateIndex(d.Name+"_attr", []int{attr}); err != nil {
			return err
		}
		if err := tbl.CreateIndex(d.Name+"_attr_key", []int{attr, key}); err != nil {
			return err
		}
	}
	if err := jen.CreateHDFSTable(w.dfs, w.cat, StarFactTable, "/warehouse/"+StarFactTable,
		w.cfg.Format, s.FactSchema(), w.cfg.HDFSFiles, s.GenFact); err != nil {
		return err
	}
	w.star = &s
	w.starFact = StarFactTable
	return nil
}

// Star returns the loaded star dataset spec (zero value when not in star
// mode).
func (w *Warehouse) Star() datagen.Star {
	if w.star == nil {
		return datagen.Star{}
	}
	return *w.star
}

// starEnv assembles the analyzer environment from live statistics: the
// fact table's catalog entry and each dimension's table cardinality, with
// the per-edge physical rule delegating to the two-table advisor
// (core.Advise) so edge choices share the paper's thresholds.
func (w *Warehouse) starEnv() (*analyzer.Env, error) {
	cat, err := w.cat.Lookup(w.starFact)
	if err != nil {
		return nil, err
	}
	sources := []*analyzer.SourceMeta{{
		Name: w.starFact, Source: analyzer.SourceHDFS,
		Schema: cat.Schema, Rows: cat.Rows, Bytes: cat.Bytes,
	}}
	for _, d := range w.star.AllDims() {
		tbl, err := w.db.Table(d.Name)
		if err != nil {
			return nil, err
		}
		rows := tbl.Rows()
		sources = append(sources, &analyzer.SourceMeta{
			Name: d.Name, Source: analyzer.SourceDB,
			Schema: tbl.Schema, Rows: rows,
			Bytes: rows * int64(16*tbl.Schema.Len()),
		})
	}
	env := analyzer.NewEnv(sources...)
	env.Registry = w.reg
	env.Options.Workers = w.cfg.JENWorkers
	env.Options.CascadeBloom = !w.cfg.StarNoCascade
	env.Advise = func(es analyzer.EdgeStats) (plan.EdgeAlg, string) {
		a := core.Advise(core.AdviceStats{
			TRows: es.DimRows, SigmaT: 1,
			LRows: es.FactRows, SigmaL: 1,
			JENWorkers: es.Workers,
		}, w.cfg.Scale)
		if a.Algorithm == core.Broadcast {
			return plan.EdgeBroadcast, a.Reason
		}
		return plan.EdgeRepartition, a.Reason + " → repartition for this edge"
	}
	return env, nil
}

// AnalyzeStar parses and analyzes a star query, returning the resolved
// plan tree, the rule-application trace, and the lowered executable plan.
func (w *Warehouse) AnalyzeStar(sql string) (analyzer.Node, *analyzer.Trace, *plan.MultiQuery, error) {
	if w.starFact == "" {
		return nil, nil, nil, fmt.Errorf("hybridwh: no star data loaded (LoadStar)")
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	env, err := w.starEnv()
	if err != nil {
		return nil, nil, nil, err
	}
	tree, trace, err := analyzer.Analyze(q, env)
	if err != nil {
		return nil, trace, nil, err
	}
	mq, err := analyzer.Lower(tree, env)
	if err != nil {
		return tree, trace, nil, err
	}
	return tree, trace, mq, nil
}

// PlanStar analyzes a star query into its executable multi-join plan.
func (w *Warehouse) PlanStar(sql string) (*plan.MultiQuery, error) {
	_, _, mq, err := w.AnalyzeStar(sql)
	return mq, err
}

// ExplainStar renders the analyzed plan tree and the per-edge physical
// choices without executing; withTrace appends the rule-application log.
func (w *Warehouse) ExplainStar(sql string, withTrace bool) (string, error) {
	tree, trace, mq, err := w.AnalyzeStar(sql)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n-way star join: %s (HDFS, %s format) ⋈ %d dimension component(s)\n",
		mq.FactTable, w.cfg.Format, len(mq.Edges))
	b.WriteString(analyzer.Format(tree))
	b.WriteString("\n")
	for i, ed := range mq.Edges {
		bloomNote := ""
		if ed.UseBloom {
			bloomNote = ", Bloom filter cascaded into the fact scan"
		}
		sub := ""
		if ed.Dim.Sub != nil {
			sub = fmt.Sprintf(" ⋈ %s (pre-joined DB-side)", ed.Dim.Sub.Table)
		}
		fmt.Fprintf(&b, "  edge %d: %s%s — %s, est. %d rows%s\n",
			i, ed.Dim.Table, sub, ed.Algorithm, ed.EstDimRows, bloomNote)
	}
	if withTrace {
		b.WriteString("\nrule trace:\n")
		b.WriteString(trace.String())
	}
	return b.String(), nil
}

// starQueryCtx executes a star query end to end: analyze, lower, run. The
// two-table options WithAlgorithm/WithCardHint/WithSigmaL do not apply to
// multi-join plans (the analyzer chooses per edge) and are rejected.
func (w *Warehouse) starQueryCtx(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	var o queryOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.forced {
		return nil, fmt.Errorf("hybridwh: WithAlgorithm does not apply to star queries (the analyzer chooses per edge)")
	}
	mq, err := w.PlanStar(sql)
	if err != nil {
		return nil, err
	}
	if w.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.cfg.QueryTimeout)
		defer cancel()
	}
	if w.schd != nil {
		v, err := w.schd.Run(ctx, w.starSchedRequest(mq))
		if err != nil {
			return nil, err
		}
		return v.(*Result), nil
	}
	if !o.keep {
		w.rec.Reset()
		w.bus.Counters().Reset()
		w.dfs.ResetReadCounters()
	}
	res, err := w.eng.RunMultiCtx(ctx, mq)
	if err != nil {
		return nil, err
	}
	return w.buildStarResult(res), nil
}

// buildStarResult wraps a multi-join engine result for the facade.
func (w *Warehouse) buildStarResult(res *core.MultiResult) *Result {
	out := &Result{
		Rows:           res.Rows,
		Schema:         res.Schema,
		Edges:          res.Edges,
		ShuffleBalance: w.rec.BalanceRatio(metrics.JENRecvTuples),
		Counters:       res.Metrics,
	}
	var parts []string
	for _, ed := range res.Edges {
		note := ed.Algorithm.String()
		if ed.Bloom {
			note += "+bloom"
		}
		parts = append(parts, fmt.Sprintf("%s:%s", ed.Dim, note))
		if ed.Switched {
			out.Switched = true
			out.SwitchedTo = "broadcast"
			out.SwitchReason = ed.SwitchReason
		}
	}
	out.Advice = "n-way plan: " + strings.Join(parts, ", ")
	return out
}

// starSchedRequest packages a multi-join plan for the admission scheduler,
// mirroring schedRequest: the fact side classifies the lane, the dimension
// estimates size the memory ask.
func (w *Warehouse) starSchedRequest(mq *plan.MultiQuery) sched.Request {
	var dimRows int64
	width := len(mq.FactWire)
	for _, ed := range mq.Edges {
		dimRows += ed.EstDimRows
		width += ed.DimWireSchema.Len()
	}
	stats := costmodel.LaneStats{
		TRows: dimRows, SigmaT: 1,
		LRows: mq.FactCardHint, SigmaL: 1,
		RowBytes: int64(16 * width),
	}
	var label strings.Builder
	fmt.Fprintf(&label, "%s ⋈ {", mq.FactTable)
	for i, ed := range mq.Edges {
		if i > 0 {
			label.WriteString(", ")
		}
		label.WriteString(ed.Dim.Table)
	}
	label.WriteString("} [n-way]")
	return sched.Request{
		Label:          label.String(),
		Lane:           costmodel.ClassifyLane(stats),
		FootprintBytes: costmodel.EstimateFootprintBytes(stats),
		Run: func(ctx context.Context, bud *mem.Budget) (any, error) {
			res, err := w.eng.RunMultiOpts(ctx, mq, core.RunOpts{Budget: bud})
			if err != nil {
				return nil, err
			}
			return w.buildStarResult(res), nil
		},
	}
}
