package skew

import (
	"reflect"
	"testing"
)

// FuzzUnmarshalSketch: observation snapshots carry sketches between
// workers, so arbitrary bytes must decode or error without panicking, and a
// decoded sketch must survive Marshal → UnmarshalSketch unchanged.
func FuzzUnmarshalSketch(f *testing.F) {
	sk := NewSketch(4)
	for i := int64(0); i < 40; i++ {
		sk.Add(i % 13 * -7)
	}
	f.Add(sk.Marshal())
	f.Add(NewSketch(256).Marshal())
	f.Add([]byte{0x04, 0x02, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := UnmarshalSketch(b)
		if err != nil {
			return
		}
		back, err := UnmarshalSketch(s.Marshal())
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("sketch round trip: %v", err)
		}
	})
}

// FuzzUnmarshalHotSet: the same properties for the hot set a hybrid switch
// decision carries.
func FuzzUnmarshalHotSet(f *testing.F) {
	f.Add(NewHotSet([]int64{-9, 0, 4, 1 << 40}).Marshal())
	f.Add(NewHotSet(nil).Marshal())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := UnmarshalHotSet(b)
		if err != nil {
			return
		}
		back, err := UnmarshalHotSet(h.Marshal())
		if err != nil || !reflect.DeepEqual(back, h) {
			t.Fatalf("hot set round trip: %v", err)
		}
	})
}
