package datagen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridwh/internal/types"
)

// The fmt- and Intn-based string generators the append helpers replaced,
// kept as the reference they must match draw for draw.

func refDummyString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = dummyAlphabet[rng.Intn(len(dummyAlphabet))]
	}
	return string(b)
}

func refGroupCol(rng *rand.Rand, groups int) string {
	g := rng.Intn(groups)
	tail := refDummyString(rng, 34)
	return fmt.Sprintf("grp-%05d/%s", g, tail)
}

// refGenL is GenL's row loop over the reference generators (uniform keys).
func refGenL(d Data, emit func(types.Row) error) error {
	d = d.WithDefaults()
	rng := rand.New(rand.NewSource(d.Seed*2 + 2))
	p := newPerm(d.Keys, d.Seed)
	for i := int64(0); i < d.LRows; i++ {
		jk := rng.Int63n(d.Keys)
		row := types.Row{
			types.Int32(int32(jk)),
			types.Int32(int32(p.pos(jk))),
			types.Int32(int32(rng.Int63n(indDomain))),
			types.Date(int32(16000 + rng.Intn(d.DateDays))),
			types.String(refGroupCol(rng, d.Groups)),
			types.String(refDummyString(rng, 8)),
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// refGenT is GenT's row loop over the reference generators.
func refGenT(d Data, emit func(types.Row) error) error {
	d = d.WithDefaults()
	rng := rand.New(rand.NewSource(d.Seed*2 + 1))
	p := newPerm(d.Keys, d.Seed)
	for i := int64(0); i < d.TRows; i++ {
		jk := rng.Int63n(d.Keys)
		row := types.Row{
			types.Int64(i),
			types.Int32(int32(jk)),
			types.Int32(int32(p.pos(jk))),
			types.Int32(int32(rng.Int63n(indDomain))),
			types.Date(int32(16000 + rng.Intn(d.DateDays))),
			types.String(refDummyString(rng, 50)),
			types.Int32(int32(rng.Intn(1 << 20))),
			types.TimeOfDay(int32(rng.Intn(86400))),
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

func collect(t *testing.T, gen func(func(types.Row) error) error) []types.Row {
	t.Helper()
	var rows []types.Row
	if err := gen(func(r types.Row) error { rows = append(rows, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return rows
}

func sameRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestGeneratorsMatchReference checks the fmt-free generators against the
// fmt/Intn code they replaced, on several seeds and group counts, including
// counts above 99999 where %05d stops padding.
func TestGeneratorsMatchReference(t *testing.T) {
	for _, seed := range []int64{0, 1, 9, 1234567} {
		for _, groups := range []int{1, 7, 1000, 250_000} {
			d := Data{TRows: 500, LRows: 3000, Keys: 300, Seed: seed, Groups: groups}
			what := fmt.Sprintf("seed=%d groups=%d", seed, groups)
			sameRows(t, "GenL "+what, collect(t, d.GenL), collect(t, func(emit func(types.Row) error) error { return refGenL(d, emit) }))
			sameRows(t, "GenT "+what, collect(t, d.GenT), collect(t, func(emit func(types.Row) error) error { return refGenT(d, emit) }))
		}
	}
	// The helpers alone, value by value, over a wide range of group indexes.
	for _, groups := range []int{100_000, 1 << 30} {
		a, b := rand.New(rand.NewSource(int64(groups))), rand.New(rand.NewSource(int64(groups)))
		for i := 0; i < 2000; i++ {
			if got, want := string(appendGroupCol(nil, a, groups)), refGroupCol(b, groups); got != want {
				t.Fatalf("groups=%d draw %d: %q, reference %q", groups, i, got, want)
			}
		}
	}
	for _, v := range []int64{0, 7, 99999, 100000, 123456789} {
		for _, width := range []int{5, 6} {
			if got, want := string(appendPadded(nil, v, width)), fmt.Sprintf("%0*d", width, v); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
	// GenDim's labels against the reference "%s-%06d", past a million rows'
	// width.
	s := Star{Dims: []DimSpec{{Name: "d", Rows: 1_000_003}}}
	var k int64
	if err := s.GenDim("d", func(r types.Row) error {
		if k%99991 == 0 || k >= 999_990 {
			if got, want := r[len(r)-1].S, fmt.Sprintf("d-%06d", k); got != want {
				t.Fatalf("label %d = %q, want %q", k, got, want)
			}
		}
		k++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
