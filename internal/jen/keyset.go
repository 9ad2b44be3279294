package jen

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// KeySet is an exact join-key filter and sink, the twin of BloomKeyFilter
// without false positives: the semijoin baseline's T' and L' key sets.
type KeySet map[int64]struct{}

// TestKey implements KeyFilter.
func (s KeySet) TestKey(k int64) bool {
	_, ok := s[k]
	return ok
}

// AddKey implements KeySink.
func (s KeySet) AddKey(k int64) { s[k] = struct{}{} }

// Empty implements KeySink.
func (s KeySet) Empty() KeySink { return KeySet{} }

// Union implements KeySink.
func (s KeySet) Union(other KeySink) error {
	o, ok := other.(KeySet)
	if !ok {
		return fmt.Errorf("jen: cannot union a key set with %T", other)
	}
	for k := range o {
		s[k] = struct{}{}
	}
	return nil
}

// Marshal encodes the set as its size, then its keys ascending: the first
// as a signed varint, the rest as unsigned deltas.
func (s KeySet) Marshal() []byte {
	keys := make([]int64, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	prev := int64(0)
	for i, k := range keys {
		if i == 0 {
			buf = binary.AppendVarint(buf, k)
		} else {
			buf = binary.AppendUvarint(buf, uint64(k-prev))
		}
		prev = k
	}
	return buf
}

// UnmarshalKeySet decodes KeySet.Marshal's encoding.
func UnmarshalKeySet(b []byte) (KeySet, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("jen: truncated key set")
	}
	b = b[sz:]
	// Every key takes at least one byte, so a count beyond the bytes left is
	// corrupt — and must not size the allocation.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("jen: key set declares %d keys in %d bytes", n, len(b))
	}
	out := make(KeySet, n)
	var prev int64
	for i := uint64(0); i < n; i++ {
		d, sz := binary.Varint(b)
		if i > 0 {
			var u uint64
			u, sz = binary.Uvarint(b)
			d = int64(u)
		}
		if sz <= 0 {
			return nil, fmt.Errorf("jen: truncated key set")
		}
		prev += d
		b = b[sz:]
		out[prev] = struct{}{}
	}
	return out, nil
}
