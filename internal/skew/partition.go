package skew

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hybridwh/internal/cluster"
)

// HotSet is the agreed set of heavy-hitter join keys. Both sides of a skewed
// shuffle must use the same set — it is computed once (at the designated JEN
// worker, from the merged sketches) and broadcast — because exactness of the
// hybrid routing depends only on the two sides agreeing, not on the set
// actually containing the heavy hitters.
type HotSet struct {
	keys map[int64]struct{}
}

// NewHotSet builds a hot set from keys (duplicates are fine).
func NewHotSet(keys []int64) *HotSet {
	h := &HotSet{keys: make(map[int64]struct{}, len(keys))}
	for _, k := range keys {
		h.keys[k] = struct{}{}
	}
	return h
}

// Contains reports whether key is hot. A nil HotSet contains nothing.
func (h *HotSet) Contains(key int64) bool {
	if h == nil {
		return false
	}
	_, ok := h.keys[key]
	return ok
}

// Len returns the number of hot keys; 0 for nil.
func (h *HotSet) Len() int {
	if h == nil {
		return 0
	}
	return len(h.keys)
}

// Keys returns the hot keys sorted ascending.
func (h *HotSet) Keys() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, 0, len(h.keys))
	for k := range h.keys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Marshal encodes the set as a sorted varint-delta key list (the same shape
// as the semijoin key-set frames).
func (h *HotSet) Marshal() []byte {
	keys := h.Keys()
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for i, k := range keys {
		if i == 0 {
			buf = binary.AppendVarint(buf, k)
		} else {
			buf = binary.AppendUvarint(buf, uint64(k-keys[i-1]))
		}
	}
	return buf
}

// UnmarshalHotSet decodes a Marshal payload. Every key takes at least one
// byte, so a count beyond the bytes left is rejected before it sizes the set.
func UnmarshalHotSet(b []byte) (*HotSet, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("skew: truncated hot set: %w", err)
	}
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("skew: hot set declares %d keys in %d bytes", n, len(b))
	}
	h := &HotSet{keys: make(map[int64]struct{}, n)}
	var prev int64
	for i := uint64(0); i < n; i++ {
		if i == 0 {
			prev, b, err = readVarint(b)
		} else {
			var d uint64
			d, b, err = readUvarint(b)
			prev += int64(d)
		}
		if err != nil {
			return nil, fmt.Errorf("skew: truncated hot set: %w", err)
		}
		h.keys[prev] = struct{}{}
	}
	return h, nil
}

// Partitioner routes join keys to n workers. Cold keys go to their agreed
// hash home (cluster.PartitionFor), so a nil/empty hot set reproduces the
// plain partitioner exactly. Hot keys round-robin across all n workers from
// a per-key cursor seeded by the key's hash plus a caller salt: successive
// rows of the same hot key land on successive workers, and different
// senders (different salts) start at different offsets so the first rows of
// a hot key don't all pile onto one worker.
//
// Routing is deterministic per (key, salt, arrival order) — a
// single-threaded sender always produces the same placement. A Partitioner
// is not safe for concurrent use; the shuffle paths guard it with the same
// mutex as their batcher.
type Partitioner struct {
	n      int
	hot    *HotSet
	salt   int
	cursor map[int64]int
}

// NewPartitioner builds a partitioner over n workers. hot may be nil.
func NewPartitioner(n int, hot *HotSet, salt int) *Partitioner {
	if n < 1 {
		n = 1
	}
	return &Partitioner{n: n, hot: hot, salt: salt, cursor: make(map[int64]int, hot.Len())}
}

// IsHot reports whether key gets hybrid treatment.
func (p *Partitioner) IsHot(key int64) bool { return p.hot.Contains(key) }

// Route returns the worker index for one row of key.
func (p *Partitioner) Route(key int64) int {
	if !p.hot.Contains(key) {
		return cluster.PartitionFor(key, p.n)
	}
	c, ok := p.cursor[key]
	if !ok {
		c = (cluster.PartitionFor(key, p.n) + p.salt) % p.n
	}
	p.cursor[key] = (c + 1) % p.n
	return c
}

// Workers returns the partition count.
func (p *Partitioner) Workers() int { return p.n }
