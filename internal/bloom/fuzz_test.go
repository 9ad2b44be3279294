package bloom

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal: filters arrive from other workers, so arbitrary bytes must
// decode or error without panicking, and a decoded filter must marshal back
// to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	bf := New(256, 3)
	for h := uint64(1); h < 50; h++ {
		bf.AddHash(h * 0x9e3779b97f4a7c15)
	}
	f.Add(bf.Marshal())
	f.Add(New(64, 1).Marshal())
	f.Add(bf.Marshal()[:20])
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := Unmarshal(b)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), b) {
			t.Fatal("decoded filter does not marshal back to its payload")
		}
	})
}
