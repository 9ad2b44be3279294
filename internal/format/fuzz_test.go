package format

import (
	"bytes"
	"slices"
	"testing"

	"hybridwh/internal/batch"
	"hybridwh/internal/types"
)

// FuzzScanHWC: on any file, ReadHWCMeta followed by the batch scan — with a
// late-materialising filter and without — never panics; the two scans fail
// together and otherwise select the same rows; and the writer's own output
// reads back as the rows written. Seeds are real writer output plus footer
// and chunk mutations of it.
func FuzzScanHWC(f *testing.F) {
	rows := kindRows(80)
	seed := writeHWCSchema(f, kindSchema(), rows, 32)
	meta, err := ReadHWCMeta(BytesSource(seed))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, d := range []int{-1, 1} {
		m := *meta
		m.Groups = slices.Clone(meta.Groups)
		m.Groups[0].Rows += d
		f.Add(rebuildHWC(seed, &m, nil))
	}
	flipped := slices.Clone(seed)
	flipped[meta.Groups[1].Cols[4].Off+3] ^= 0xFF
	f.Add(flipped)
	f.Add(seed[:len(seed)/2])

	// Kind-agnostic, so it means the same whatever schema a mutation leaves.
	even := func(v types.Value) bool { return v.I%2 == 0 && len(v.S)%2 == 0 }
	filter := keepIf([]int{0}, func(b *batch.Batch, i int) bool { return even(b.Col(0)[i]) })
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := ReadHWCMeta(BytesSource(data))
		if err != nil || meta.Schema.Len() > 64 {
			return
		}
		full, _, _, errFull := scanSelected(t, data, meta, nil, nil, nil, 64)
		late, _, _, errLate := scanSelected(t, data, meta, nil, nil, filter, 64)
		if (errFull == nil) != (errLate == nil) {
			t.Fatalf("full scan error %v, filtered scan error %v", errFull, errLate)
		}
		if errFull != nil {
			return
		}
		var want []types.Row
		for _, r := range full {
			if even(r[0]) {
				want = append(want, r)
			}
		}
		sameRows(t, late, want)
		if bytes.Equal(data, seed) {
			sameRows(t, full, rows)
		}
	})
}
