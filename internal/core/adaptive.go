package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/plan"
	"hybridwh/internal/skew"
)

// Adaptive execution (Config.AdaptiveSwitch): the repartition-based joins
// fix an advisor misprediction at runtime instead of living with it. The
// advisor commits to a plan from histograms and bounded samples; those
// estimates are wrong exactly when the choice matters most. The adaptive
// layer turns scan-time telemetry (a Misra-Gries sketch, batch counters,
// jen.Progress) into a feedback loop over a briefly deferred shuffle:
//
//  1. Each JEN worker scans with plain-hash routing *deferred*: the first
//     K (adaptBatches) wire batches are buffered locally while a
//     sketch and live σ_L counters accumulate over them.
//  2. At K batches (or end of scan, whichever first) the worker sends an
//     observation snapshot — physical/surviving row counts plus its sketch
//     — to the designated JEN worker (MsgControl, stream "adapt.obs").
//     Each DB worker contributes its observed |T'| the same way, which it
//     knows exactly once its partition filter has run.
//  3. The designated worker merges all n+m snapshots, extrapolates σ_L,
//     |L'|, |T'| and the hot-key share, re-costs the committed shuffle
//     plan against broadcasting T' and against the hybrid skew
//     partitioner (costmodel.ShuffleJoinCost/BroadcastJoinCost), and — if
//     an alternative wins past the hysteresis margin
//     (costmodel.ShouldSwitch) — switches the plan, broadcasting the
//     decision to every JEN and DB worker (MsgControl, stream
//     "adapt.dec").
//  4. Workers apply the decision mid-flight: keep → flush the buffered
//     batches through the agreed hash and route the rest of the scan
//     live; hybrid → same, through a skew.Partitioner built from the
//     decision's hot set; broadcast → keep buffering, never shuffle, and
//     join locally against the full T' that the DB workers now broadcast
//     instead of scattering.
//
// Exactness: routing never starts before the decision, every worker
// applies the same decision, and the broadcast probe reproduces
// runBroadcast's combined layout bit for bit — so results are identical
// to the never-switch run whatever the decision. Abort safety piggybacks
// on the standard protocol: snapshots and decisions are sent even on
// failure paths (like the zigzag BF_H fan-in), every receive selects on
// MsgError and the program context, and the designated worker always
// broadcasts a fallback keep decision when its fan-in fails so no peer
// blocks on a handshake that will never complete.

const (
	// adaptBatches is K, the number of wire batches each JEN worker buffers
	// before contributing its observation snapshot.
	adaptBatches = 8
	// sketchKeys is the heavy-hitter sketch capacity: exact while a worker
	// sees fewer than twice this many distinct surviving keys, and past that
	// the Misra-Gries bound (≤ rows/capacity) still catches every hot key.
	sketchKeys = 256
	// adaptMargin is the hysteresis: an alternative must re-cost at least
	// this fraction cheaper than the committed plan to trigger a switch.
	adaptMargin = 0.25
)

// switchKind is the runtime strategy a decision selects.
type switchKind byte

const (
	keepPlan switchKind = iota
	switchBroadcast
	switchHybrid
)

// String names the runtime strategy (Result.SwitchedTo).
func (k switchKind) String() string {
	switch k {
	case keepPlan:
		return "keep"
	case switchBroadcast:
		return "broadcast"
	case switchHybrid:
		return "hybrid-shuffle"
	default:
		return fmt.Sprintf("switch(%d)", int(k))
	}
}

// obsSnapshot is one worker's contribution to the observed statistics:
// scanned/survived rows and the heavy-hitter sketch from a JEN worker's
// scan prefix, or the exact |T'| from a DB worker. Snapshots merge by
// field-wise sum (sketch merge is a pointwise counter sum), so the fan-in
// is order-independent.
type obsSnapshot struct {
	scanned  int64 // physical L rows pulled through the filter stage
	survived int64 // of those, rows surviving every filter
	tRows    int64 // T' rows (DB side)
	tBytes   int64 // T' wire bytes (DB side, estimated)
	sketch   *skew.Sketch
}

// merge folds o into s.
func (s *obsSnapshot) merge(o obsSnapshot) {
	s.scanned += o.scanned
	s.survived += o.survived
	s.tRows += o.tRows
	s.tBytes += o.tBytes
	s.sketch.Merge(o.sketch)
}

// marshal encodes the snapshot: four big-endian int64s, then the sketch.
func (s obsSnapshot) marshal() []byte {
	sk := s.sketch
	if sk == nil {
		sk = skew.NewSketch(1)
	}
	buf := make([]byte, 32)
	binary.BigEndian.PutUint64(buf[0:], uint64(s.scanned))
	binary.BigEndian.PutUint64(buf[8:], uint64(s.survived))
	binary.BigEndian.PutUint64(buf[16:], uint64(s.tRows))
	binary.BigEndian.PutUint64(buf[24:], uint64(s.tBytes))
	return append(buf, sk.Marshal()...)
}

func unmarshalObs(b []byte) (obsSnapshot, error) {
	if len(b) < 32 {
		return obsSnapshot{}, fmt.Errorf("core: truncated observation snapshot (%d bytes)", len(b))
	}
	sk, err := skew.UnmarshalSketch(b[32:])
	if err != nil {
		return obsSnapshot{}, fmt.Errorf("core: observation sketch: %w", err)
	}
	return obsSnapshot{
		scanned:  int64(binary.BigEndian.Uint64(b[0:])),
		survived: int64(binary.BigEndian.Uint64(b[8:])),
		tRows:    int64(binary.BigEndian.Uint64(b[16:])),
		tBytes:   int64(binary.BigEndian.Uint64(b[24:])),
		sketch:   sk,
	}, nil
}

// adaptDecision is the agreed mid-query plan: what to switch to (or keep),
// the hot set when the hybrid partitioner engages, and the human-readable
// rationale surfaced as Result.SwitchReason.
type adaptDecision struct {
	kind   switchKind
	reason string
	hot    *skew.HotSet
}

// marshal encodes kind, length-prefixed reason, then the hot set (empty
// when the decision is not hybrid).
func (d *adaptDecision) marshal() []byte {
	hot := d.hot
	if hot == nil {
		hot = skew.NewHotSet(nil)
	}
	buf := []byte{byte(d.kind)}
	buf = binary.AppendUvarint(buf, uint64(len(d.reason)))
	buf = append(buf, d.reason...)
	return append(buf, hot.Marshal()...)
}

func unmarshalDecision(b []byte) (*adaptDecision, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("core: empty switch decision")
	}
	kind := switchKind(b[0])
	rl, n := binary.Uvarint(b[1:])
	if n <= 0 || uint64(len(b[1+n:])) < rl {
		return nil, fmt.Errorf("core: truncated switch decision")
	}
	rest := b[1+n:]
	reason := string(rest[:rl])
	hot, err := skew.UnmarshalHotSet(rest[rl:])
	if err != nil {
		return nil, fmt.Errorf("core: switch decision hot set: %w", err)
	}
	return &adaptDecision{kind: kind, reason: reason, hot: hot}, nil
}

// decisionWatch is the JEN workers' side of the decision receive: the
// routes are opened before the scan starts, so the scan loop can poll for
// the decision between batches without blocking, and the program can block
// on it after the scan. close must run before the program ends.
type decisionWatch struct {
	r      *netsim.Router
	at     string
	stream string
	ch     <-chan netsim.Envelope
	abort  <-chan netsim.Envelope
	d      *adaptDecision
	err    error
}

// watchDecision opens the decision routes at a JEN endpoint.
func (e *Engine) watchDecision(at, stream string) (*decisionWatch, error) {
	r := e.routers[at]
	ch, err := r.Route(netsim.MsgControl, stream)
	if err != nil {
		return nil, err
	}
	abort, err := r.Route(netsim.MsgError, stream)
	if err != nil {
		r.Unroute(netsim.MsgControl, stream)
		return nil, err
	}
	return &decisionWatch{r: r, at: at, stream: stream, ch: ch, abort: abort}, nil
}

// consume decodes a decision envelope into the watch's terminal state.
func (w *decisionWatch) consume(env netsim.Envelope) {
	d, err := unmarshalDecision(env.Payload)
	if err != nil {
		w.err = fmt.Errorf("core: %s decision %s from %s: %w", w.at, w.stream, env.From, err)
		return
	}
	w.d = d
}

// poll returns the decision if it has arrived, (nil, nil) if not yet.
// An incoming MsgError is terminal, exactly as in the blocking receives.
func (w *decisionWatch) poll() (*adaptDecision, error) {
	if w.d != nil || w.err != nil {
		return w.d, w.err
	}
	select {
	case env := <-w.ch:
		w.consume(env)
	case env := <-w.abort:
		w.err = decodeAbort(w.at, w.stream, env)
	default:
	}
	return w.d, w.err
}

// wait blocks until the decision arrives, a peer aborts the stream, or the
// program context is canceled.
func (w *decisionWatch) wait(ctx context.Context) (*adaptDecision, error) {
	if w.d != nil || w.err != nil {
		return w.d, w.err
	}
	select {
	case env := <-w.ch:
		w.consume(env)
	case env := <-w.abort:
		w.err = decodeAbort(w.at, w.stream, env)
	case <-ctx.Done():
		return nil, ctxAbort(ctx, w.at, w.stream)
	}
	return w.d, w.err
}

// close releases the routes.
func (w *decisionWatch) close() {
	w.r.Unroute(netsim.MsgControl, w.stream)
	w.r.Unroute(netsim.MsgError, w.stream)
}

// decideSwitch is the adaptive decision rule of both executors: re-cost
// the committed shuffle join against broadcasting the small side — and,
// with hybrid, against the hybrid skew partitioner — and switch only past
// the adaptMargin hysteresis. It records adapt.decisions and
// adapt.switches and returns the choice with the three costs (hy is +Inf
// without hybrid).
func (e *Engine) decideSwitch(stats costmodel.PlanStats, hybrid bool) (kind switchKind, cur, bc, hy float64) {
	mod := costmodel.New(costmodel.Rates{})
	cur, bc, hy = mod.ShuffleJoinCost(stats, false), mod.BroadcastJoinCost(stats), math.Inf(1)
	if hybrid {
		hy = mod.ShuffleJoinCost(stats, true)
	}
	alt, kind := bc, switchBroadcast
	if hy < bc {
		alt, kind = hy, switchHybrid
	}
	if !costmodel.ShouldSwitch(cur, alt, adaptMargin) {
		kind = keepPlan
	}
	e.rec.Add(metrics.AdaptDecisions, 1)
	if kind != keepPlan {
		e.rec.Add(metrics.AdaptSwitches, 1)
	}
	return kind, cur, bc, hy
}

// coordinateSwitch runs at the designated JEN worker: collect every
// worker's observations, extrapolate them to full-query statistics, decide,
// store the decision in *decided for the facade, and broadcast it. lTotal is
// the full L row count (the catalog cardinality the σ_L extrapolation
// multiplies), and lRowBytes the wire width of one L' row. On a fan-in
// failure it still broadcasts a fallback keep decision so no peer blocks on
// the handshake — the failure itself travels via MsgError and the context.
func (e *Engine) coordinateSwitch(ctx context.Context, qs, me string, n, m int, lTotal, lRowBytes int64, decided **adaptDecision) error {
	o := obsSnapshot{sketch: skew.NewSketch(sketchKeys)}
	err := e.recvControl(ctx, me, netsim.MsgControl, qs+"adapt.obs", n+m, func(p []byte) error {
		part, err := unmarshalObs(p)
		if err == nil {
			o.merge(part)
		}
		return err
	})
	d := &adaptDecision{kind: keepPlan, reason: "observation fan-in failed; keeping the committed plan"}
	if err == nil {
		sigmaL := 1.0
		if o.scanned > 0 {
			sigmaL = float64(o.survived) / float64(o.scanned)
		}
		lRows := int64(sigmaL * float64(lTotal))
		hotShare := o.sketch.HottestShare()
		// The hot bar is half a worker's fair share of the observed prefix:
		// past it, one key alone overloads its hash home.
		hot := skew.NewHotSet(o.sketch.Hot(1 / (2 * float64(n))))
		kind, cur, bc, hy := e.decideSwitch(costmodel.PlanStats{
			TPrimeRows: o.tRows, TPrimeBytes: o.tBytes,
			LPrimeRows: lRows, LPrimeBytes: lRows * lRowBytes,
			HotKeyShare: hotShare,
			JENWorkers:  n, DBWorkers: m,
		}, hot.Len() > 0)
		e.rec.Add(metrics.AdaptObsSigmaLPermille, int64(sigmaL*1000))
		e.rec.Add(metrics.AdaptObsTPrimeRows, o.tRows)
		e.rec.Add(metrics.AdaptObsHotPermille, int64(hotShare*1000))
		d = &adaptDecision{
			kind: kind,
			reason: fmt.Sprintf(
				"observed σ_L=%.4f (L'≈%d rows), |T'|=%d rows (%d B), hottest key %.0f%% of scan prefix: re-cost keep=%.3gs broadcast=%.3gs hybrid=%.3gs (margin %.0f%%) → %s",
				sigmaL, lRows, o.tRows, o.tBytes, hotShare*100, cur, bc, hy, adaptMargin*100, kind),
		}
		if kind == switchHybrid {
			d.hot = hot
		}
	}
	*decided = d
	firstErr(&err, e.sendControl(me, netsim.MsgControl, qs+"adapt.dec", d.marshal(), metrics.AdaptBytes, append(e.jenNames(), e.dbNames()...)))
	return err
}

// adaptJENWorker is one JEN worker's scan-side state machine: buffer and
// observe until the decision arrives, then route — possibly flushing what
// was buffered under the old plan through the new one.
type adaptJENWorker struct {
	e        *Engine
	qs       string
	me       string
	q        *plan.JoinQuery
	b        *batcher
	w, n     int
	scanKey  int // join-key column in the scan-projected layout
	watch    *decisionWatch
	route    func(key int64) int // the agreed hash
	progress jen.Progress

	mu sync.Mutex
	// All the fields below are guarded by mu (morsel workers yield
	// concurrently).
	sketch    *skew.Sketch
	buffered  []*batch.Batch
	batches   int
	obsSent   bool
	dec       *adaptDecision
	part      *skew.Partitioner // hybrid routing, nil otherwise
	hotTuples int64
}

// onBatch is the scan yield: poll for the decision, and either buffer
// (undecided or broadcast) or route (keep/hybrid) this batch.
func (a *adaptJENWorker) onBatch(sb *batch.Batch) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dec == nil {
		d, err := a.watch.poll()
		if err != nil {
			return err
		}
		if d != nil {
			if err := a.applyLocked(d); err != nil {
				return err
			}
		}
	}
	if a.dec != nil && a.dec.kind != switchBroadcast {
		return a.b.scatterBatch(sb, a.q.HDFSWire, a.scanKey, nil, a.routeFnLocked())
	}
	// Undecided (or switched to broadcast): copy the wire projection into
	// the local buffer; while undecided, feed the sketch and count toward
	// the K-batch observation trigger.
	wb := batch.New(len(a.q.HDFSWire), sb.Len())
	keys := sb.Col(a.scanKey)
	perr := sb.Each(func(i int) error {
		if a.dec == nil && !a.obsSent {
			a.sketch.Add(keys[i].Int())
		}
		wb.AppendFrom(sb, i, a.q.HDFSWire)
		return nil
	})
	a.buffered = append(a.buffered, wb)
	if a.dec == nil {
		a.batches++
		if !a.obsSent && a.batches >= adaptBatches {
			if err := a.sendObsLocked(); err != nil {
				return err
			}
		}
	}
	return perr
}

// sendObsLocked snapshots the live scan counters and ships them to the
// designated worker. Callers hold mu.
func (a *adaptJENWorker) sendObsLocked() error {
	a.obsSent = true
	o := obsSnapshot{
		scanned:  a.progress.Processed(),
		survived: a.progress.Survived(),
		sketch:   a.sketch,
	}
	return a.e.sendControl(a.me, netsim.MsgControl, a.qs+"adapt.obs", o.marshal(), metrics.AdaptBytes, []string{jenName(a.e.jen.DesignatedWorker())})
}

// applyLocked installs the decision and, for keep/hybrid, flushes the
// buffered batches through the chosen routing. Callers hold mu.
func (a *adaptJENWorker) applyLocked(d *adaptDecision) error {
	a.dec = d
	if d.kind == switchBroadcast {
		return nil // keep buffering; the local probe consumes the buffers
	}
	if d.kind == switchHybrid {
		a.part = skew.NewPartitioner(a.n, d.hot, a.w)
	}
	route := a.routeFnLocked()
	for _, wb := range a.buffered {
		if err := a.b.scatterBatch(wb, nil, a.q.HDFSWireKey, nil, route); err != nil {
			return err
		}
	}
	a.buffered = nil
	return nil
}

// routeFnLocked returns the scatter route for the installed decision.
// Callers hold mu (the hybrid partitioner and hot counter are mu-guarded
// state).
func (a *adaptJENWorker) routeFnLocked() func(key int64) int {
	if a.part == nil {
		return a.route
	}
	return func(key int64) int {
		if a.part.IsHot(key) {
			a.hotTuples++
		}
		return a.part.Route(key)
	}
}

// decided returns the installed decision kind (keepPlan when none arrived,
// which only happens on failure paths).
func (a *adaptJENWorker) decided() switchKind {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dec == nil {
		return keepPlan
	}
	return a.dec.kind
}

// takeBuffered hands the buffered wire batches to the broadcast probe.
func (a *adaptJENWorker) takeBuffered() []*batch.Batch {
	a.mu.Lock()
	defer a.mu.Unlock()
	bs := a.buffered
	a.buffered = nil
	return bs
}

// finish completes the handshake after the scan: send the snapshot if the
// scan ended before K batches (even on the failure path, so the
// designated fan-in always completes), coordinate at
// the designated worker, then block for the decision and apply it. It does
// not close the shuffle batcher — the caller's CloseWith still owns stream
// completion.
func (a *adaptJENWorker) finish(ctx context.Context, pr *prog, lTotal, lRowBytes int64, decided **adaptDecision) {
	a.mu.Lock()
	if !a.obsSent {
		pr.fail(a.sendObsLocked())
	}
	a.mu.Unlock()
	if a.w == a.e.jen.DesignatedWorker() {
		pr.fail(a.e.coordinateSwitch(ctx, a.qs, a.me, a.n, a.e.db.Workers(), lTotal, lRowBytes, decided))
	}
	d, err := a.watch.wait(ctx)
	pr.fail(err)
	if *pr.err == nil && d != nil {
		a.mu.Lock()
		if a.dec == nil {
			pr.fail(a.applyLocked(d))
		}
		a.mu.Unlock()
	}
	a.mu.Lock()
	hot := a.hotTuples
	a.mu.Unlock()
	a.e.rec.AddAt(metrics.JENShuffleHotTuples, a.w, hot)
}

// adaptObserveT contributes one DB worker's observed |T'| to the
// designated fan-in. It is sent even on the failure path so the fan-in
// always completes; in the zigzag program it goes out before the BF_H wait,
// because the designated worker broadcasts BF_H only after coordinating the
// switch — waiting first would deadlock the handshake.
func (e *Engine) adaptObserveT(pr *prog, qs string, q *plan.JoinQuery, i int, tRows int64) {
	o := obsSnapshot{
		tRows:  tRows,
		tBytes: tRows * 16 * int64(len(q.DBProj)),
	}
	pr.fail(e.sendControl(dbName(i), netsim.MsgControl, qs+"adapt.obs", o.marshal(), metrics.AdaptBytes, []string{jenName(e.jen.DesignatedWorker())}))
}

// adaptRouteT blocks for the agreed decision and routes T' accordingly:
// broadcast, or scattered by the agreed hash with the decision's hot rows
// (empty unless hybrid) replicated. On the failure path it still drains the
// decision — under the aborted program context, so it cannot block — and
// ships nothing.
func (e *Engine) adaptRouteT(ctx context.Context, pr *prog, qs string, q *plan.JoinQuery, b *batcher, i int, tw []*batch.Batch, route func(key int64) int, runErr *error) {
	var d *adaptDecision
	pr.fail(e.recvControl(ctx, dbName(i), netsim.MsgControl, qs+"adapt.dec", 1, func(p []byte) (err error) {
		d, err = unmarshalDecision(p)
		return err
	}))
	if *runErr != nil {
		return
	}
	if d.kind == switchBroadcast {
		pr.fail(b.sendBatches(tw))
		return
	}
	pr.fail(b.scatterBatches(tw, q.DBWireKey, d.hot, route))
}
