package datagen

import (
	"fmt"
	"math/rand"

	"hybridwh/internal/types"
)

// This file generates the multi-join star/snowflake dataset: one wide fact
// table destined for HDFS plus small dimension tables destined for the
// EDW, the shape the N-way analyzer plans over. Unlike the Section 5
// two-table construction there are no selectivity knobs to solve for —
// dimension predicates of the form "attr < c" select c/attrDomain of a
// dimension directly, and every fact foreign key hits exactly one
// dimension row, so reference results are easy to reason about.

// attrDomain is the value domain of every dimension's attr column: a
// predicate "attr < c" selects c/attrDomain of the dimension.
const attrDomain = 1000

// measureDomain is the value domain of the fact table's measure column.
const measureDomain = 10000

// DimSpec describes one dimension table. Keys are dense [0, Rows), so a
// fact foreign key drawn from the same range joins with exactly one row.
type DimSpec struct {
	Name string
	Rows int64
	// Sub, when set, snowflakes this dimension: the parent carries an
	// fk_<sub> column drawn dense over the sub-dimension's keys, and the
	// analyzer pre-joins the pair DB-side. One level only.
	Sub *DimSpec
}

// Schema returns the dimension's schema: dense key, a uniform attr in
// [0, attrDomain) for predicates, the snowflake foreign key when Sub is
// set, and a short label.
func (d DimSpec) Schema() types.Schema {
	cols := []types.Col{
		types.C("key", types.KindInt64),
		types.C("attr", types.KindInt64),
	}
	if d.Sub != nil {
		cols = append(cols, types.C("fk_"+d.Sub.Name, types.KindInt64))
	}
	cols = append(cols, types.C("label", types.KindString))
	return types.Schema{Cols: cols}
}

// Star describes a star/snowflake dataset.
type Star struct {
	FactRows int64
	Dims     []DimSpec
	Seed     int64
	// Groups is the number of distinct grp values in the fact table.
	Groups int
	// ZipfS, when > 1, skews the FIRST dimension's foreign-key draw
	// Zipf(s)-distributed, mirroring Data.ZipfS; 0 keeps it uniform.
	ZipfS float64
}

// WithDefaults fills zero fields with small test-scale values.
func (s Star) WithDefaults() Star {
	if s.FactRows == 0 {
		s.FactRows = 100_000
	}
	if len(s.Dims) == 0 {
		s.Dims = []DimSpec{
			{Name: "customer", Rows: 2000},
			{Name: "product", Rows: 500},
			{Name: "store", Rows: 100},
		}
	}
	if s.Groups == 0 {
		s.Groups = 10
	}
	return s
}

// FactSchema returns the fact table's schema: one fk_<dim> per top-level
// dimension, a measure, and a grouping column.
func (s Star) FactSchema() types.Schema {
	s = s.WithDefaults()
	var cols []types.Col
	for _, d := range s.Dims {
		cols = append(cols, types.C("fk_"+d.Name, types.KindInt64))
	}
	cols = append(cols,
		types.C("measure", types.KindInt64),
		types.C("grp", types.KindInt64),
	)
	return types.Schema{Cols: cols}
}

// AllDims returns every dimension including snowflake sub-dimensions,
// parents before subs, in declaration order.
func (s Star) AllDims() []DimSpec {
	s = s.WithDefaults()
	var out []DimSpec
	for _, d := range s.Dims {
		out = append(out, d)
		if d.Sub != nil {
			out = append(out, *d.Sub)
		}
	}
	return out
}

// GenFact streams the fact table rows. Foreign keys are uniform over each
// dimension's dense key range (the first dimension optionally Zipf-skewed).
func (s Star) GenFact(emit func(types.Row) error) error {
	s = s.WithDefaults()
	rng := rand.New(rand.NewSource(s.Seed*4 + 3))
	draws := make([]func() int64, len(s.Dims))
	for i, d := range s.Dims {
		rows := d.Rows
		draws[i] = func() int64 { return rng.Int63n(rows) }
	}
	if s.ZipfS != 0 {
		if s.ZipfS <= 1 {
			return fmt.Errorf("datagen: ZipfS must be 0 (uniform) or > 1, got %v", s.ZipfS)
		}
		z := rand.NewZipf(rng, s.ZipfS, 1, uint64(s.Dims[0].Rows-1))
		draws[0] = func() int64 { return int64(z.Uint64()) }
	}
	for i := int64(0); i < s.FactRows; i++ {
		row := make(types.Row, 0, len(s.Dims)+2)
		for _, draw := range draws {
			row = append(row, types.Int64(draw()))
		}
		row = append(row,
			types.Int64(rng.Int63n(measureDomain)),
			types.Int64(rng.Int63n(int64(s.Groups))),
		)
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// GenDim streams one dimension's rows (top-level or sub, looked up by
// name). Generation is independent of the other tables, so loads can run
// in any order.
func (s Star) GenDim(name string, emit func(types.Row) error) error {
	s = s.WithDefaults()
	for i, d := range s.AllDims() {
		if d.Name != name {
			continue
		}
		rng := rand.New(rand.NewSource(s.Seed*100 + int64(i) + 7))
		buf := append([]byte(d.Name), '-')
		prefix := len(buf)
		for k := int64(0); k < d.Rows; k++ {
			row := types.Row{
				types.Int64(k),
				types.Int64(rng.Int63n(attrDomain)),
			}
			if d.Sub != nil {
				row = append(row, types.Int64(rng.Int63n(d.Sub.Rows)))
			}
			buf = appendPadded(buf[:prefix], k, 6) // "<name>-%06d"
			row = append(row, types.String(string(buf)))
			if err := emit(row); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("datagen: star has no dimension %q", name)
}
