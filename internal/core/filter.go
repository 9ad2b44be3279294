package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/edw"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
)

// The join-key filters the zigzag dataflow (Figure 4) exchanges between the
// systems: the keys of T' to the JEN workers (BF_DB), the surviving L' keys
// back to the DB workers (BF_H). The paper uses Bloom filters; the semijoin
// baseline runs the same dataflow with exact key sets.

// filterKind selects the join-key filter of one direction of the dataflow.
type filterKind byte

const (
	noFilter  filterKind = iota
	bloomKeys            // Bloom filters: BF_DB and BF_H
	exactKeys            // exact key sets: the semijoin
)

// streams names the kind's filter streams: DB → JEN, the JEN fan-in at the
// designated worker, and designated JEN worker → DB.
func (k filterKind) streams() (toJEN, fanIn, toDB string) {
	if k == exactKeys {
		return "tkeys", "lkeyslocal", "lkeys"
	}
	return "bfdb", "bfhlocal", "bfh"
}

// msgType is the message type the kind's filters travel as.
func (k filterKind) msgType() netsim.MsgType {
	if k == exactKeys {
		return netsim.MsgControl
	}
	return netsim.MsgBloom
}

// joinFilter is one filter of either kind: a jen.BloomKeyFilter or a keySet.
type joinFilter interface {
	jen.KeyFilter
	jen.KeySink
}

// newFilter returns an empty filter of kind k.
func (e *Engine) newFilter(k filterKind) joinFilter {
	if k == exactKeys {
		return keySet{}
	}
	return jen.BloomKeyFilter{F: bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)}
}

// buildDBFilter builds the DB side's filter over the join keys of T' (zigzag
// steps 1–2): BF_DB, whose build records bloom.build.keys, or the exact key
// set of T'. The filter is valid only when the error is nil.
func (e *Engine) buildDBFilter(k filterKind, tbl *edw.Table, q *plan.JoinQuery) (joinFilter, error) {
	if k == exactKeys {
		keys, err := e.db.BuildKeySet(tbl, q.DBPred, q.DBJoinColBase)
		return keySet(keys), err
	}
	bf, err := e.db.BuildBloom(tbl, q.DBPred, q.DBJoinColBase, e.cfg.BloomBits, e.cfg.BloomHashes)
	return jen.BloomKeyFilter{F: bf}, err
}

// sendFilter ships a filter, charging its bytes to bloom.bytes per
// destination whatever its kind (both kinds play the same role).
func (e *Engine) sendFilter(from, stream string, f joinFilter, dests []string) error {
	if s, ok := f.(keySet); ok {
		return e.sendControl(from, exactKeys.msgType(), stream, marshalKeySet(s), metrics.BloomBytes, dests)
	}
	return e.sendControl(from, bloomKeys.msgType(), stream, f.(jen.BloomKeyFilter).F.Marshal(), metrics.BloomBytes, dests)
}

// decode decodes one filter of kind k; the filter is valid only when the
// error is nil.
func (k filterKind) decode(p []byte) (joinFilter, error) {
	if k == exactKeys {
		return unmarshalKeySet(p)
	}
	bf, err := bloom.Unmarshal(p)
	return jen.BloomKeyFilter{F: bf}, err
}

// recvFilter receives `parts` filters of kind k and returns their union
// (parts == 1 is a plain receive).
func (e *Engine) recvFilter(ctx context.Context, k filterKind, at, stream string, parts int) (joinFilter, error) {
	var out joinFilter
	err := e.recvControl(ctx, at, k.msgType(), stream, parts, func(p []byte) error {
		f, err := k.decode(p)
		switch {
		case err != nil:
			return err
		case out == nil:
			out = f
			return nil
		}
		return out.Union(f)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pruneT drops the T' rows whose join key (column keyIdx) f rejects: BF_H,
// which records db.bloom.filtered, or the semijoin's exact L' key set.
func (e *Engine) pruneT(tw []*batch.Batch, keyIdx int, f joinFilter) {
	if bf, isBloom := f.(jen.BloomKeyFilter); isBloom {
		e.db.ApplyBloomBatches(tw, keyIdx, bf.F)
		return
	}
	for _, tb := range tw {
		keys := tb.Col(keyIdx)
		tb.Filter(func(r int) bool { return f.TestKey(keys[r].Int()) })
	}
}

// keySet is an exact join-key membership filter.
type keySet map[int64]struct{}

// TestKey implements jen.KeyFilter.
func (s keySet) TestKey(k int64) bool {
	_, ok := s[k]
	return ok
}

// AddKey implements jen.KeySink.
func (s keySet) AddKey(k int64) { s[k] = struct{}{} }

// Empty implements jen.KeySink.
func (s keySet) Empty() jen.KeySink { return keySet{} }

// Union implements jen.KeySink.
func (s keySet) Union(other jen.KeySink) error {
	o, ok := other.(keySet)
	if !ok {
		return fmt.Errorf("core: cannot union a key set with %T", other)
	}
	for k := range o {
		s[k] = struct{}{}
	}
	return nil
}

// marshalKeySet encodes the set as sorted varint deltas.
func marshalKeySet(s keySet) []byte {
	keys := make([]int64, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
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

func unmarshalKeySet(b []byte) (keySet, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("core: truncated key set")
	}
	b = b[sz:]
	// Every key takes at least one byte, so a count beyond the bytes left is
	// corrupt — and must not size the allocation.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("core: key set declares %d keys in %d bytes", n, len(b))
	}
	out := make(keySet, n)
	var prev int64
	for i := uint64(0); i < n; i++ {
		// The first key is absolute (signed), the rest are ascending deltas.
		d, sz := binary.Varint(b)
		if i > 0 {
			var u uint64
			u, sz = binary.Uvarint(b)
			d = int64(u)
		}
		if sz <= 0 {
			return nil, fmt.Errorf("core: truncated key set")
		}
		prev += d
		b = b[sz:]
		out[prev] = struct{}{}
	}
	return out, nil
}
