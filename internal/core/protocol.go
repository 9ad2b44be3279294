package core

import (
	"context"
	"fmt"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/cluster"
	"hybridwh/internal/netsim"
	"hybridwh/internal/par"
	"hybridwh/internal/skew"
)

// The wire protocol shared by every algorithm. Row streams are identified
// by a per-query stream name; each sender ends its stream to each receiver
// with one EOS message, so receivers know completion without any global
// coordinator. Per-(sender, receiver) bus ordering guarantees all of a
// sender's rows precede its EOS. A sender that fails mid-query terminates
// its streams with MsgError instead (batcher.CloseWith);
// receivers treat an incoming MsgError as a terminal classified error, and
// the per-query context unblocks any receive the abort never reached (see
// abort.go).

// batcher accumulates rows per destination in columnar batches and ships
// them as MsgRows messages, recording tuple and byte counters against the
// sending worker. The wire encoding (batch.EncodeBatch) is byte-identical
// to types.EncodeRows over the same rows, and a buffer flushes exactly when
// it reaches cfg.BatchRows rows, so message boundaries — and therefore the
// byte counters — match the seed's row-at-a-time batcher bit for bit.
//
// A batcher is safe for concurrent use: morsel workers (Config.WorkerThreads
// > 1) feed one shared batcher per stream under its mutex. Sharing — rather
// than one batcher per thread — is what keeps the message counts
// deterministic: a destination's buffer still flushes exactly when it
// reaches cfg.BatchRows rows, so per-destination message and byte totals
// depend only on the row totals, not on which thread appended which row.
type batcher struct {
	e      *Engine
	ctx    context.Context
	from   string
	stream string
	size   int
	dests  []string

	mu   sync.Mutex
	bufs []*batch.Batch // guarded by mu — dests[i]'s buffer, created on first use

	// Counter names (vector counters, indexed by slot); empty to skip.
	tupleCounter string
	byteCounter  string
	slot         int

	tuples int64 // guarded by mu
}

// newBatcher creates a batcher. dests is the full set of endpoints this
// sender may target; EOS goes to all of them on Close. The query context
// is checked at every flush, so a canceled query stops shipping batches
// instead of streaming its table to completion.
func (e *Engine) newBatcher(ctx context.Context, from, stream string, dests []string, tupleCounter, byteCounter string, slot int) *batcher {
	return &batcher{
		e: e, ctx: ctx, from: from, stream: stream, size: e.cfg.BatchRows,
		dests: dests, bufs: make([]*batch.Batch, len(dests)),
		tupleCounter: tupleCounter, byteCounter: byteCounter, slot: slot,
	}
}

// appendLocked queues physical row i of src, projected through proj, for
// dests[d], flushing a full batch. dests[d]'s buffer is created with the
// stream's row width, ncols, on first use (all rows of one stream share a
// layout). Callers hold mu.
func (b *batcher) appendLocked(d int, src *batch.Batch, i int, proj []int, ncols int) error {
	bb := b.bufs[d]
	if bb == nil {
		bb = batch.New(ncols, b.size)
		b.bufs[d] = bb
	}
	bb.AppendFrom(src, i, proj)
	b.tuples++
	if bb.Full() {
		return b.flushLocked(d)
	}
	return nil
}

// scatterBatch routes every live row of src by its key column (an index
// into src's physical layout, read before projection) to the destination
// route picks (an index into b.dests), projecting each row through proj
// into the destination buffer. A row whose key is in hot (nil or empty for
// none) goes to every destination instead — the small side of the hybrid
// skew treatment: a hot T' row must be present wherever its scattered L'
// partners landed. Tuples count once per copy, exactly as sendBatch counts
// them.
func (b *batcher) scatterBatch(src *batch.Batch, proj []int, keyIdx int, hot *skew.HotSet, route func(key int64) int) error {
	ncols := projWidth(src, proj)
	keys := src.Col(keyIdx)
	replicate := hot.Len() > 0
	b.mu.Lock()
	defer b.mu.Unlock()
	return src.Each(func(i int) error {
		k := keys[i].Int()
		if !replicate || !hot.Contains(k) {
			return b.appendLocked(route(k), src, i, proj, ncols)
		}
		for d := range b.dests {
			if err := b.appendLocked(d, src, i, proj, ncols); err != nil {
				return err
			}
		}
		return nil
	})
}

// sendBatch queues every live row of src, projected through proj (src
// column indexes; nil copies positionally), for every destination: a
// broadcast, or the one destination of a point-to-point stream. Tuples are
// counted once per copy. src is on loan: its values are copied into the
// destination buffers.
func (b *batcher) sendBatch(src *batch.Batch, proj []int) error {
	ncols := projWidth(src, proj)
	b.mu.Lock()
	defer b.mu.Unlock()
	for d := range b.dests {
		err := src.Each(func(i int) error {
			return b.appendLocked(d, src, i, proj, ncols)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// hashRoute is the agreed hash function as a scatter route: key to worker
// index among n, the position of that worker in a batcher's dests.
func hashRoute(n int) func(key int64) int {
	return func(key int64) int { return cluster.PartitionFor(key, n) }
}

// projWidth is the column count of src's rows projected through proj.
func projWidth(src *batch.Batch, proj []int) int {
	if proj != nil {
		return len(proj)
	}
	return src.NumCols()
}

// flushLocked ships dests[d]'s buffered rows as one framed message.
// Callers hold mu.
func (b *batcher) flushLocked(d int) error {
	bb := b.bufs[d]
	if bb == nil || bb.Size() == 0 {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("core: %s send %s: %w", b.from, b.stream, context.Cause(b.ctx))
	}
	payload := batch.EncodeBatch(bb)
	bb.Reset()
	if b.byteCounter != "" {
		b.e.rec.AddAt(b.byteCounter, b.slot, int64(len(payload)))
	}
	return b.e.bus.Send(b.from, b.dests[d], netsim.Msg{Type: netsim.MsgRows, Stream: b.stream, Payload: payload})
}

// CloseWith completes the stream one way or the other, and records the
// tuples actually shipped. With runErr == nil it flushes every buffer and
// sends EOS to every destination; a send failure to one destination must not
// drop the partial buffers of the others, so every flush is attempted. With
// a failure it drops the buffered rows and broadcasts MsgError carrying
// runErr's classification (encodeAbort), so every receiver fails fast
// instead of counting an EOS that will never come; a dead endpoint cannot
// abort its streams, and the context teardown covers for it. It must run
// even on error paths, so receivers never hang. It runs after the feeding
// workers have joined, so the lock is uncontended; holding it keeps the
// guard invariant unconditional.
func (b *batcher) CloseWith(runErr error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var err error
	if runErr == nil {
		for d := range b.dests {
			firstErr(&err, b.flushLocked(d))
		}
	}
	for _, d := range b.dests {
		if runErr == nil {
			firstErr(&err, b.e.bus.Send(b.from, d, netsim.Msg{Type: netsim.MsgEOS, Stream: b.stream}))
		} else {
			firstErr(&err, b.e.bus.Send(b.from, d, netsim.Msg{Type: netsim.MsgError, Stream: b.stream, Payload: encodeAbort(runErr)}))
		}
	}
	if b.tupleCounter != "" {
		b.e.rec.AddAt(b.tupleCounter, b.slot, b.tuples)
	}
	return err
}

// receive drains the stream at endpoint `at` until `senders` EOS messages
// arrive, calling fn for every decoded batch: the one receive of data frames.
// The batch passed to fn is on loan — it is reused for the next frame, so fn
// copies what it keeps (keepBatches, appendRows, InsertBatch, …). With
// senders == 0 it returns immediately.
//
// fnSends states that fn sends on the bus: a stage scatters its output into
// the next edge's shuffle as each shuffled batch arrives, the broadcast
// relay and the DB-side ingest forward what they receive. Were such an fn to
// block on a full inbox while the route channel filled, this endpoint's
// router would block on the route and its inbox would fill, so a peer sending
// the same way — or this worker, sending to itself — would block too: a cycle
// no context breaks, because a bus send does not observe one. So its frames
// pass through relay, which takes each one off the route as it arrives and
// queues it for fn without bound, as the router already queues a stream
// nobody has routed yet; the stream loses its backpressure. Every other
// receive reads the route directly and keeps it: relaying all of them made
// the N-way star measurably slower (DESIGN §13).
//
// Failure semantics: a decode failure or an fn error is recorded (first
// error wins) and the loop keeps draining until every EOS arrives, so
// senders are never left waiting on this receiver. An incoming MsgError is
// terminal — a peer aborted the stream — and so is cancellation of the
// per-query context; both return immediately, relying on the abort teardown
// (router Unroute release + context cancellation) to unblock the remaining
// senders.
func (e *Engine) receive(ctx context.Context, at, stream string, senders int, fnSends bool, fn func(b *batch.Batch) error) error {
	if senders == 0 {
		return nil
	}
	r := e.routers[at]
	rows, err := r.Route(netsim.MsgRows, stream)
	if err != nil {
		return err
	}
	eos, err := r.Route(netsim.MsgEOS, stream)
	if err != nil {
		return err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		return err
	}
	defer r.Unroute(netsim.MsgRows, stream)
	defer r.Unroute(netsim.MsgEOS, stream)
	defer r.Unroute(netsim.MsgError, stream)

	in, fin, stop := rows, make(chan struct{}), make(chan struct{})
	if fnSends {
		var g par.Group
		in = relay(&g, rows, fin, stop)
		defer func() {
			close(stop)
			_ = g.Wait() // the relay never fails; this joins it
		}()
	}

	decoded := batch.New(0, 0)
	var consumeErr error
	consume := func(env netsim.Envelope) {
		if consumeErr != nil {
			return // already failed; keep draining the protocol
		}
		if err := batch.DecodeBatch(env.Payload, decoded); err != nil {
			consumeErr = fmt.Errorf("core: %s decoding %s from %s: %w", at, stream, env.From, err)
			return
		}
		if decoded.Len() == 0 {
			return
		}
		if err := fn(decoded); err != nil {
			consumeErr = err
		}
	}
	for remaining := senders; remaining > 0; {
		select {
		case env := <-in:
			consume(env)
		case <-eos:
			remaining--
		case env := <-abort:
			return decodeAbort(at, stream, env)
		case <-ctx.Done():
			return ctxAbort(ctx, at, stream)
		}
	}
	// Bus ordering: each sender's rows precede its EOS, and the router
	// dispatches sequentially, so by the final EOS every frame is in the
	// route channel or the relay's queue. The leftovers go through the same
	// consume as the main loop — decode-checked, first error wins.
	if fnSends {
		close(fin)
		for env := range in {
			consume(env)
		}
		return consumeErr
	}
	for {
		select {
		case env := <-rows:
			consume(env)
		default:
			return consumeErr
		}
	}
}

// relay forwards src to the returned channel through an unbounded FIFO, so
// whoever sends on src — the endpoint's router — never waits for the reader.
// Once fin closes it takes what is left on src, delivers the queue and
// closes the channel; it gives up when stop closes. It runs on g.
func relay(g *par.Group, src <-chan netsim.Envelope, fin, stop <-chan struct{}) <-chan netsim.Envelope {
	out := make(chan netsim.Envelope)
	g.Go(func() error {
		defer close(out)
		var q []netsim.Envelope
		for {
			var send chan<- netsim.Envelope
			var head netsim.Envelope
			if len(q) > 0 {
				send, head = out, q[0]
			}
			select {
			case env := <-src:
				q = append(q, env)
			case send <- head:
				q[0] = netsim.Envelope{}
				q = q[1:]
			case <-fin:
			rest:
				for {
					select {
					case env := <-src:
						q = append(q, env)
					default:
						break rest
					}
				}
				for _, env := range q {
					select {
					case out <- env:
					case <-stop:
						return nil
					}
				}
				return nil
			case <-stop:
				return nil
			}
		}
	})
	return out
}

// keepBatches is a sink — of a receive, a scan or a combiner — that keeps a
// copy of every batch in *dst: a stream or an intermediate the plan needs
// whole before it can go on.
func keepBatches(dst *[]*batch.Batch) func(*batch.Batch) error {
	return func(b *batch.Batch) error {
		*dst = append(*dst, b.Clone())
		return nil
	}
}

// liveRows is the total live row count of bs.
func liveRows(bs []*batch.Batch) int64 {
	var n int64
	for _, b := range bs {
		n += int64(b.Len())
	}
	return n
}

// sendControl ships one control payload — a join-key filter, an observation
// snapshot, a switch decision or an N-way control value — to every
// destination, charging its size to counter once per destination.
func (e *Engine) sendControl(from string, typ netsim.MsgType, stream string, payload []byte, counter string, dests []string) error {
	for _, d := range dests {
		e.rec.Add(counter, int64(len(payload)))
		if err := e.bus.Send(from, d, netsim.Msg{Type: typ, Stream: stream, Payload: payload}); err != nil {
			return err
		}
	}
	return nil
}

// recvControl is the one control fan-in: it receives `parts` messages of
// type typ on stream at endpoint `at` and hands each payload to merge, which
// decodes it and folds it into the caller's result. Like receive, a bad
// part (a merge error) is recorded and the loop keeps collecting the
// remaining parts so senders are never stranded; an incoming MsgError or
// context cancellation is terminal.
func (e *Engine) recvControl(ctx context.Context, at string, typ netsim.MsgType, stream string, parts int, merge func(payload []byte) error) error {
	r := e.routers[at]
	ch, err := r.Route(typ, stream)
	if err != nil {
		return err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		r.Unroute(typ, stream)
		return err
	}
	defer r.Unroute(typ, stream)
	defer r.Unroute(netsim.MsgError, stream)
	var consumeErr error
	for i := 0; i < parts; i++ {
		select {
		case env := <-ch:
			if consumeErr != nil {
				continue // already failed; keep draining the protocol
			}
			if err := merge(env.Payload); err != nil {
				consumeErr = fmt.Errorf("core: %s %s from %s: %w", at, stream, env.From, err)
			}
		case env := <-abort:
			return decodeAbort(at, stream, env)
		case <-ctx.Done():
			return ctxAbort(ctx, at, stream)
		}
	}
	return consumeErr
}

// jenNames returns all JEN worker endpoint names.
func (e *Engine) jenNames() []string { return names(e.jen.Workers(), jenName) }

// dbNames returns all DB worker endpoint names.
func (e *Engine) dbNames() []string { return names(e.db.Workers(), dbName) }

// names returns the endpoint names of workers 0..n-1.
func names(n int, name func(int) string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = name(i)
	}
	return out
}
