// Package skew detects and routes around join-key skew in the shuffle
// paths: a streaming heavy-hitter sketch identifies the keys hot enough to
// serialize a repartition join on one worker, and a Partitioner gives those
// keys hybrid treatment — the big side's hot rows scatter round-robin across
// all workers while the small side's hot rows are replicated everywhere —
// so the join stays exact while no single worker receives a hot key's full
// row volume ("Scaling and Load-Balancing Equi-Joins", Metwally 2022;
// Afrati et al.'s join-product-skew framework).
package skew

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Sketch is a deterministic Misra-Gries heavy-hitter summary over int64
// join keys. Counts are exact lower bounds: for every key,
// count ≤ true-frequency ≤ count + ErrBound(). The summary stores at most
// 2×capacity entries between prunes; any key whose true frequency exceeds
// ErrBound() is guaranteed present.
//
// Merging is a pointwise counter sum — commutative and associative — so a
// set of sketches merges to the same summary in any order. When every input
// sketch never overflowed (ErrBound() == 0, i.e. it saw fewer distinct keys
// than 2×capacity), the merged summary is the exact frequency vector of the
// combined stream regardless of how the stream was split across workers or
// threads. Overflowing sketches keep the Misra-Gries guarantee instead:
// ErrBound() ≤ Total()/(capacity+1) per input, summed across inputs.
//
// A Sketch is not safe for concurrent use; build one per thread and Merge
// (the same discipline as the per-thread Bloom clones in the JEN scan).
type Sketch struct {
	cap    int
	counts map[int64]int64
	total  int64
	err    int64
}

// NewSketch returns an empty sketch that prunes itself back to `capacity`
// entries whenever it grows past 2×capacity. Values < 1 mean 1.
func NewSketch(capacity int) *Sketch {
	if capacity < 1 {
		capacity = 1
	}
	return &Sketch{cap: capacity, counts: make(map[int64]int64, 2*capacity)}
}

// Capacity returns the configured capacity.
func (s *Sketch) Capacity() int { return s.cap }

// Add records one occurrence of key.
func (s *Sketch) Add(key int64) { s.AddN(key, 1) }

// AddN records n occurrences of key. n ≤ 0 is a no-op.
func (s *Sketch) AddN(key int64, n int64) {
	if n <= 0 {
		return
	}
	s.total += n
	s.counts[key] += n
	if len(s.counts) > 2*s.cap {
		s.prune()
	}
}

// prune implements the batched Misra-Gries decrement: subtract the
// (cap+1)-th largest count from every entry and drop the non-positive
// remainder. At least cap+1 entries carry the subtracted value, so the
// subtracted amounts sum to at most Total()/(cap+1) over the sketch's
// lifetime — the classic error bound. Ties are irrelevant: the subtracted
// value depends only on the multiset of counts, so the result is
// deterministic for a given stream.
func (s *Sketch) prune() {
	cs := make([]int64, 0, len(s.counts))
	for _, c := range s.counts {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] > cs[j] })
	v := cs[s.cap]
	for k, c := range s.counts {
		if c <= v {
			delete(s.counts, k)
		} else {
			s.counts[k] = c - v
		}
	}
	s.err += v
}

// Total returns the exact number of occurrences recorded (across merges).
func (s *Sketch) Total() int64 { return s.total }

// ErrBound returns the maximum undercount of any stored counter; keys not
// stored have true frequency at most ErrBound().
func (s *Sketch) ErrBound() int64 { return s.err }

// Count returns the [lo, hi] bounds on key's true frequency.
func (s *Sketch) Count(key int64) (lo, hi int64) {
	c := s.counts[key]
	return c, c + s.err
}

// Len returns the number of tracked keys.
func (s *Sketch) Len() int { return len(s.counts) }

// Merge folds o into s as a pointwise counter sum. The merged summary may
// exceed capacity; it is never pruned, so merging is order-independent.
// o is unchanged; o == nil is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	s.total += o.total
	s.err += o.err
	for k, c := range o.counts {
		s.counts[k] += c
	}
}

// Hot returns, sorted ascending, every key whose frequency upper bound
// reaches minShare of the total. Every key with true share ≥ minShare is
// included (no false negatives) provided ErrBound() < minShare×Total(),
// which holds whenever capacity ≥ 1/minShare; false positives are harmless
// to the join — any agreed hot set preserves exactness.
func (s *Sketch) Hot(minShare float64) []int64 {
	if s.total == 0 || minShare <= 0 {
		return nil
	}
	bar := minShare * float64(s.total)
	var out []int64
	for k, c := range s.counts {
		if float64(c+s.err) >= bar {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HottestShare returns the upper-bound share of the most frequent tracked
// key (0 for an empty sketch) — the advisor's straggler estimate.
func (s *Sketch) HottestShare() float64 {
	if s.total == 0 {
		return 0
	}
	var max int64
	for _, c := range s.counts {
		if c > max {
			max = c
		}
	}
	share := float64(max+s.err) / float64(s.total)
	if share > 1 {
		share = 1
	}
	return share
}

// Marshal encodes the sketch: capacity, total, error bound, then the
// entries as sorted keys (delta-coded) with their counts. Sorting makes the
// encoding canonical: equal sketches marshal identically.
func (s *Sketch) Marshal() []byte {
	keys := make([]int64, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := binary.AppendUvarint(nil, uint64(s.cap))
	buf = binary.AppendVarint(buf, s.total)
	buf = binary.AppendVarint(buf, s.err)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	prev := int64(0)
	for i, k := range keys {
		if i == 0 {
			buf = binary.AppendVarint(buf, k)
		} else {
			buf = binary.AppendUvarint(buf, uint64(k-prev))
		}
		prev = k
		buf = binary.AppendVarint(buf, s.counts[k])
	}
	return buf
}

// UnmarshalSketch decodes a Marshal payload. The wire's counts are bounded
// before they size anything: every entry takes at least two bytes (key and
// count), and the capacity presizes the map only up to the entries present.
func UnmarshalSketch(b []byte) (*Sketch, error) {
	capacity, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	total, b, err := readVarint(b)
	if err != nil {
		return nil, err
	}
	errB, b, err := readVarint(b)
	if err != nil {
		return nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if capacity < 1 || capacity > math.MaxInt32 {
		return nil, fmt.Errorf("skew: sketch capacity %d out of range", capacity)
	}
	if n > uint64(len(b))/2 {
		return nil, fmt.Errorf("skew: sketch declares %d entries in %d bytes", n, len(b))
	}
	s := &Sketch{cap: int(capacity), counts: make(map[int64]int64, n), total: total, err: errB}
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
			return nil, err
		}
		var c int64
		c, b, err = readVarint(b)
		if err != nil {
			return nil, err
		}
		s.counts[prev] = c
	}
	return s, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("skew: truncated sketch")
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("skew: truncated sketch")
	}
	return v, b[n:], nil
}
