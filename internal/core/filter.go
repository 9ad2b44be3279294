package core

import (
	"context"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
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

// joinFilter is one filter of either kind: a jen.BloomKeyFilter or a jen.KeySet.
type joinFilter interface {
	jen.KeyFilter
	jen.KeySink
}

// newFilter returns an empty filter of kind k.
func (e *Engine) newFilter(k filterKind) joinFilter {
	if k == exactKeys {
		return jen.KeySet{}
	}
	return jen.BloomKeyFilter{F: bloom.New(e.cfg.BloomBits, e.cfg.BloomHashes)}
}

// sendFilter ships a filter, charging its bytes to bloom.bytes per
// destination whatever its kind (both kinds play the same role).
func (e *Engine) sendFilter(from, stream string, f joinFilter, dests []string) error {
	if s, ok := f.(jen.KeySet); ok {
		return e.sendControl(from, exactKeys.msgType(), stream, s.Marshal(), metrics.BloomBytes, dests)
	}
	return e.sendControl(from, bloomKeys.msgType(), stream, f.(jen.BloomKeyFilter).F.Marshal(), metrics.BloomBytes, dests)
}

// decode decodes one filter of kind k; the filter is valid only when the
// error is nil.
func (k filterKind) decode(p []byte) (joinFilter, error) {
	if k == exactKeys {
		return jen.UnmarshalKeySet(p)
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
