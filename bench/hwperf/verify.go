package main

import (
	"fmt"
	"sort"

	"hybridwh/internal/datagen"
	"hybridwh/internal/types"
)

// canonical renders result rows order-independently.
func canonical(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// diffRows compares a result against its reference and describes the first
// difference ("" when they agree).
func diffRows(want, got []string) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("row %d: got %s, want %s", i, got[i], want[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("row count: got %d, want %d", len(got), len(want))
	}
	return ""
}

// starReference evaluates the star query in one pass over the generators,
// sharing no code with the engine: dimension keys are dense, so each
// dimension is a slice indexed by key and every fact row is four lookups.
func starReference(s datagen.Star, l starLimits) ([]string, error) {
	dims := map[string][][2]int64{} // name → key → (attr, sub fk or 0)
	for _, d := range s.AllDims() {
		rows := make([][2]int64, d.Rows)
		err := s.GenDim(d.Name, func(r types.Row) error {
			v := [2]int64{r[1].Int(), 0}
			if d.Sub != nil {
				v[1] = r[2].Int()
			}
			rows[r[0].Int()] = v
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("hwperf: star reference: %w", err)
		}
		dims[d.Name] = rows
	}
	customer, region := dims["customer"], dims["region"]
	product, store := dims["product"], dims["store"]
	type acc struct{ count, sum int64 }
	groups := map[int64]*acc{}
	// Fact layout: fk_customer, fk_product, fk_store, measure, grp.
	err := s.GenFact(func(r types.Row) error {
		c := customer[r[0].Int()]
		if c[0] >= l.customer || region[c[1]][0] >= l.region ||
			product[r[1].Int()][0] >= l.product || store[r[2].Int()][0] >= l.store {
			return nil
		}
		g := groups[r[4].Int()]
		if g == nil {
			g = &acc{}
			groups[r[4].Int()] = g
		}
		g.count++
		g.sum += r[3].Int()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("hwperf: star reference: %w", err)
	}
	rows := make([]types.Row, 0, len(groups))
	for grp, g := range groups {
		rows = append(rows, types.Row{types.Int64(grp), types.Int64(g.count), types.Int64(g.sum)})
	}
	return canonical(rows), nil
}
