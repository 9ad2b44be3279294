// Package datagen generates the Section 5 synthetic dataset: a transaction
// table T for the database and a log table L for HDFS, with independent
// control of the four knobs the paper sweeps — the local-predicate
// selectivities σ_T and σ_L and the join-key selectivities S_T′ and S_L′.
//
// The construction places every join key at a position pos(k) of a fixed
// pseudo-random permutation and stores pos(k) as the corPred column of both
// tables. Predicates of the form "corPred BETWEEN lo AND hi" therefore
// select key *intervals* in permutation space: interval lengths set the key
// fractions and interval placement sets their overlap, which determines the
// join-key selectivities exactly. indPred is independent uniform noise that
// makes up the rest of each σ, as in the paper ("one int column correlated
// with the join key ... and another int column independent of the join
// key").
//
// Because the selectivity knobs live entirely in predicate literals, one
// generated dataset serves every cell of every experiment — only the query
// constants change, exactly like the paper's "by modifying constants a and
// c ... but we can also modify the constants b and d accordingly".
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"hybridwh/internal/types"
)

// indDomain is the value domain of the independent predicate columns.
const indDomain = 1_000_000

// Data describes one generated dataset (structure only; selectivities are
// chosen per query via Workload).
type Data struct {
	TRows int64 // paper: 1.6e9 / scale
	LRows int64 // paper: 15e9 / scale
	Keys  int64 // unique join keys; paper: 16e6 / scale
	Seed  int64

	// DateDays is the window of predAfterJoin dates (paper-style ±1 day
	// post-join predicates then keep ≈ 2/DateDays of joined pairs).
	DateDays int
	// Groups is the number of distinct group-by values.
	Groups int
	// ZipfS skews L's foreign-key distribution: 0 keeps the paper's uniform
	// draw, s > 1 draws join keys Zipf(s)-distributed over [0, Keys) so a
	// handful of keys dominate the log table — the adversarial workload for
	// the skew-resilient shuffle. Values in (0, 1] are rejected (the
	// stdlib generator requires s > 1). T's keys stay uniform either way:
	// the paper's skew lives in the log's foreign keys.
	ZipfS float64
}

// WithDefaults fills zero fields with 1/1000-scale paper values.
func (d Data) WithDefaults() Data {
	if d.TRows == 0 {
		d.TRows = 1_600_000
	}
	if d.LRows == 0 {
		d.LRows = 15_000_000
	}
	if d.Keys == 0 {
		d.Keys = 16_000
	}
	if d.DateDays == 0 {
		d.DateDays = 30
	}
	if d.Groups == 0 {
		d.Groups = 1000
	}
	return d
}

// Selectivities are the workload knobs of the paper's experiments.
type Selectivities struct {
	SigmaT float64 // σ_T: T local-predicate selectivity
	SigmaL float64 // σ_L: L local-predicate selectivity
	ST     float64 // S_T′: fraction of T′ join keys that appear in L′
	SL     float64 // S_L′: fraction of L′ join keys that appear in T′
}

// Workload is a solved parameter point: the interval fractions plus the
// dataset they apply to. Its accessor methods yield the predicate literals.
type Workload struct {
	Data Data
	Sel  Selectivities

	FracT, IndT float64 // σ_T = FracT · IndT
	FracL, IndL float64 // σ_L = FracL · IndL
	ShiftFrac   float64 // placement of L's key interval
}

// Solve computes the interval parameters realizing the given selectivities
// over the dataset, or an error if they are mutually infeasible. The free
// parameter (L's key fraction) is chosen as small as the constraints allow,
// which keeps indPred selectivities close to 1 and the construction robust
// at small scales.
//
// Derivation: with key fractions fT, fL and overlap fraction ov,
// S_T′ = ov/fT and S_L′ = ov/fL, so fT = fL·S_L′/S_T′ and ov = fL·S_L′.
// Feasibility needs σT ≤ fT ≤ 1, σL ≤ fL ≤ 1, and fT + fL − ov ≤ 1 so the
// L interval [fT−ov, fT−ov+fL) fits without wrapping.
//
// Coverage condition: a key in the selected window only appears in the
// filtered table if at least one of its rows passes indPred, which holds
// with probability 1−(1−Ind)^(rows/key). Keep rows-per-key × Ind ≳ 5 (true
// at paper scale, where L has ~937 rows per key) or the realized join-key
// selectivities fall below their targets.
func Solve(data Data, sel Selectivities) (Workload, error) {
	w := Workload{Data: data.WithDefaults(), Sel: sel}
	if sel.SigmaT <= 0 || sel.SigmaT > 1 || sel.SigmaL <= 0 || sel.SigmaL > 1 {
		return w, fmt.Errorf("datagen: σ values must be in (0,1]: %+v", sel)
	}
	if sel.ST <= 0 || sel.ST > 1 || sel.SL <= 0 || sel.SL > 1 {
		return w, fmt.Errorf("datagen: join-key selectivities must be in (0,1]: %+v", sel)
	}
	ratio := sel.SL / sel.ST // fT = ratio · fL
	lo := math.Max(sel.SigmaL, sel.SigmaT/ratio)
	hi := math.Min(1, 1/ratio)
	// fT + fL − ov ≤ 1  ⇔  fL·(ratio + 1 − SL) ≤ 1.
	if d := ratio + 1 - sel.SL; d > 0 {
		hi = math.Min(hi, 1/d)
	}
	if lo > hi+1e-12 {
		return w, fmt.Errorf("datagen: infeasible selectivities %+v (need fL in [%.4f, %.4f])", sel, lo, hi)
	}
	fL := lo
	fT := ratio * fL
	ov := sel.SL * fL
	w.FracL = fL
	w.FracT = fT
	w.IndT = sel.SigmaT / fT
	w.IndL = sel.SigmaL / fL
	w.ShiftFrac = fT - ov // L interval [shift, shift+fL) overlaps [0,fT) by ov
	if w.ShiftFrac < 0 {
		w.ShiftFrac = 0
	}
	return w, nil
}

// SolveNearest is Solve, except that when the requested point is
// mathematically infeasible under uniform data — e.g. Figure 8's
// (σL=0.4, S_L′=0.1, S_T′=0.05) cell, where |T′ keys| + |L′ keys| would
// exceed the key domain with less than the forced minimum overlap — it
// raises S_T′ to the smallest feasible value and reports the adjustment.
// The minimum comes from the wrap constraint at fL = σL:
// S_T′ ≥ σL·S_L′ / (1 − σL + S_L′·σL).
func SolveNearest(data Data, sel Selectivities) (Workload, Selectivities, error) {
	w, err := Solve(data, sel)
	if err == nil {
		return w, sel, nil
	}
	adjusted := sel
	if d := 1 - sel.SigmaL + sel.SL*sel.SigmaL; d > 0 {
		min := sel.SigmaL * sel.SL / d
		if min > adjusted.ST {
			adjusted.ST = min * 1.0001
		}
	}
	// The σT constraint can also bind: fT = fL·SL/ST ≥ σT needs
	// ST ≤ SL·fL/σT at some feasible fL ≤ 1, i.e. ST ≤ SL/σT.
	if cap := sel.SL / sel.SigmaT; adjusted.ST > cap {
		adjusted.ST = cap
	}
	w, err = Solve(data, adjusted)
	if err != nil {
		return w, sel, err
	}
	return w, adjusted, nil
}

// TSchema is the paper's transaction table schema.
func TSchema() types.Schema {
	return types.NewSchema(
		types.C("uniqKey", types.KindInt64),
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("indPred", types.KindInt32),
		types.C("predAfterJoin", types.KindDate),
		types.C("dummy1", types.KindString),
		types.C("dummy2", types.KindInt32),
		types.C("dummy3", types.KindTime),
	)
}

// LSchema is the paper's log table schema.
func LSchema() types.Schema {
	return types.NewSchema(
		types.C("joinKey", types.KindInt32),
		types.C("corPred", types.KindInt32),
		types.C("indPred", types.KindInt32),
		types.C("predAfterJoin", types.KindDate),
		types.C("groupByExtractCol", types.KindString),
		types.C("dummy", types.KindString),
	)
}

// perm is a bijection on [0, Keys): multiplication by a constant coprime to
// Keys, plus an offset. Linear, but the construction only needs that
// intervals in pos-space map to scattered key sets deterministically.
type perm struct {
	k, a, b int64
}

func newPerm(keys, seed int64) perm {
	a := int64(2654435761) % keys
	if a <= 1 {
		a = 1
	}
	for gcd(a, keys) != 1 {
		a++
	}
	return perm{k: keys, a: a, b: seed % keys}
}

func (p perm) pos(jk int64) int64 {
	return ((jk*p.a)%p.k + p.b + p.k) % p.k
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TCorMax is the literal x in "T.corPred <= x": keys at positions [0, FracT).
func (w Workload) TCorMax() int64 {
	return int64(math.Round(w.FracT*float64(w.Data.Keys))) - 1
}

// TIndMax is the literal for "T.indPred <= x" with selectivity IndT.
func (w Workload) TIndMax() int64 { return int64(math.Round(w.IndT*indDomain)) - 1 }

// LCorRange is the [lo, hi] literal pair in "L.corPred BETWEEN lo AND hi":
// keys at positions [ShiftFrac, ShiftFrac+FracL).
func (w Workload) LCorRange() (lo, hi int64) {
	k := float64(w.Data.Keys)
	lo = int64(math.Round(w.ShiftFrac * k))
	hi = lo + int64(math.Round(w.FracL*k)) - 1
	if hi >= w.Data.Keys {
		hi = w.Data.Keys - 1
	}
	return lo, hi
}

// LIndMax is the literal for "L.indPred <= x" with selectivity IndL.
func (w Workload) LIndMax() int64 { return int64(math.Round(w.IndL*indDomain)) - 1 }

// GenT streams the transaction table rows.
func (d Data) GenT(emit func(types.Row) error) error {
	d = d.WithDefaults()
	rng := rand.New(rand.NewSource(d.Seed*2 + 1))
	p := newPerm(d.Keys, d.Seed)
	var buf []byte
	for i := int64(0); i < d.TRows; i++ {
		jk := rng.Int63n(d.Keys)
		cor := p.pos(jk)
		ind := rng.Int63n(indDomain)
		date := 16000 + rng.Intn(d.DateDays)
		buf = appendDummy(buf[:0], rng, 50)
		row := types.Row{
			types.Int64(i),
			types.Int32(int32(jk)),
			types.Int32(int32(cor)),
			types.Int32(int32(ind)),
			types.Date(int32(date)),
			types.String(string(buf)),
			types.Int32(int32(rng.Intn(1 << 20))),
			types.TimeOfDay(int32(rng.Intn(86400))),
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// GenL streams the log table rows.
func (d Data) GenL(emit func(types.Row) error) error {
	d = d.WithDefaults()
	rng := rand.New(rand.NewSource(d.Seed*2 + 2))
	p := newPerm(d.Keys, d.Seed)
	nextKey := func() int64 { return rng.Int63n(d.Keys) }
	if d.ZipfS != 0 {
		if d.ZipfS <= 1 {
			return fmt.Errorf("datagen: ZipfS must be 0 (uniform) or > 1, got %v", d.ZipfS)
		}
		z := rand.NewZipf(rng, d.ZipfS, 1, uint64(d.Keys-1))
		nextKey = func() int64 { return int64(z.Uint64()) }
	}
	var buf []byte
	for i := int64(0); i < d.LRows; i++ {
		jk := nextKey()
		cor := p.pos(jk)
		ind := rng.Int63n(indDomain)
		date := 16000 + rng.Intn(d.DateDays)
		// Both strings of the row share one allocation.
		buf = appendGroupCol(buf[:0], rng, d.Groups)
		split := len(buf)
		buf = appendDummy(buf, rng, 8)
		strs := string(buf)
		row := types.Row{
			types.Int32(int32(jk)),
			types.Int32(int32(cor)),
			types.Int32(int32(ind)),
			types.Date(int32(date)),
			types.String(strs[:split]),
			types.String(strs[split:]),
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

const dummyAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"

// appendDummy appends n characters of dummyAlphabet to b, one Int63 draw
// each. The alphabet has 64 letters, and under math/rand's frozen algorithm
// rng.Intn(64) is int32(rng.Int63()>>32) & 63, so this draws exactly what
// the Intn-per-character loop it replaced drew, without its call overhead.
func appendDummy(b []byte, rng *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		b = append(b, dummyAlphabet[(rng.Int63()>>32)&63])
	}
	return b
}

// appendGroupCol appends the paper's groupByExtractCol to b: a varchar(46)
// "grp-%05d/" plus 34 dummy characters, whose embedded integer the
// extract_group UDF pulls out.
func appendGroupCol(b []byte, rng *rand.Rand, groups int) []byte {
	b = append(b, "grp-"...)
	b = appendPadded(b, int64(rng.Intn(groups)), 5)
	b = append(b, '/')
	return appendDummy(b, rng, 34)
}

// appendPadded appends the decimal v (v >= 0) zero-padded to width digits,
// as fmt's %0<width>d does: wider values are written in full.
func appendPadded(b []byte, v int64, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, v, 10)
}
