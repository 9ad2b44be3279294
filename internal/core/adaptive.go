package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hybridwh/internal/batch"
	"hybridwh/internal/costmodel"
	"hybridwh/internal/jen"
	"hybridwh/internal/metrics"
	"hybridwh/internal/netsim"
	"hybridwh/internal/par"
	"hybridwh/internal/skew"
)

// Adaptive execution (Config.AdaptiveSwitch): a shuffle-join edge fixes an
// advisor misprediction at runtime instead of living with it, through one
// of two gates (joinEdge.gate). Both re-cost the committed shuffle against
// broadcasting the dimension (decideSwitch) and switch only past the
// adaptMargin hysteresis.
//
// The scan gate (a two-table repartition-family edge) defers the shuffle
// briefly. Each JEN worker buffers its first K (adaptBatches) wire batches
// while a Misra-Gries sketch and live σ_L counters (jen.Progress)
// accumulate, then sends that observation to the designated JEN worker
// ("adapt.obs"); each DB worker sends its exact |T'|. The designated worker
// merges all n+m, extrapolates σ_L, |L'|, |T'| and the hot-key share,
// re-costs against a broadcast and the hybrid skew partitioner, and sends
// the decision to every worker ("adapt.dec"). Keep flushes the buffered
// batches through the agreed hash and routes the rest of the scan live;
// hybrid does so through a skew.Partitioner built from the decision's hot
// set; broadcast keeps buffering and joins locally against the full T' the
// DB workers now broadcast instead of scattering.
//
// The held gate (an N-way repartition edge past the first) holds its whole
// input, so the observation is its exact size (jenWorker.decide).
//
// Exactness: routing never starts before the decision, every worker applies
// the same decision, and a switched broadcast reproduces a broadcast edge's
// combined layout bit for bit, so results equal the never-switch run's.
// Abort safety rides on the standard protocol: observations and decisions
// are sent even on failure paths, every receive selects on MsgError and the
// program context, and the designated worker sends a fallback keep decision
// when its fan-in fails, so no peer waits on a handshake that cannot end.

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

// decideSwitch is the adaptive decision rule of both gates: re-cost
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
func (e *Engine) coordinateSwitch(ctx context.Context, obs, dec, me string, n, m int, lTotal, lRowBytes int64, decided **adaptDecision) error {
	o := obsSnapshot{sketch: skew.NewSketch(sketchKeys)}
	err := e.recvControl(ctx, me, netsim.MsgControl, obs, n+m, func(p []byte) error {
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
	firstErr(&err, e.sendControl(me, netsim.MsgControl, dec, d.marshal(), metrics.AdaptBytes, append(e.jenNames(), e.dbNames()...)))
	return err
}

// adaptJENWorker is one JEN worker's scan-side state machine: buffer and
// observe until the decision arrives, then route — possibly flushing what
// was buffered under the old plan through the new one.
type adaptJENWorker struct {
	e        *Engine
	me, obs  string // the worker and the observation stream
	b        *batcher
	w, n     int
	wire     []int               // the scan layout's wire projection
	wireKey  int                 // join-key column in the wire layout
	scanKey  int                 // join-key column in the scan layout
	route    func(key int64) int // the agreed hash
	progress jen.Progress

	// The decision, received in the background (watch): the scan's yields
	// find it without blocking, and finish waits for it.
	decision atomic.Pointer[adaptDecision]
	recv     par.Group
	recvErr  error // read after recv.Wait

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

// watch starts the decision's receive on stream dec. Its failure — a peer's
// MsgError, a bad payload — aborts the program context at once, so the scan
// stops shipping, and finish reports it.
func (a *adaptJENWorker) watch(ctx context.Context, pr *prog, dec string) {
	a.recv.Go(func() error {
		a.recvErr = a.e.recvControl(ctx, a.me, netsim.MsgControl, dec, 1, func(p []byte) error {
			d, err := unmarshalDecision(p)
			if err == nil {
				a.decision.Store(d)
			}
			return err
		})
		pr.bgFail(a.recvErr)
		return nil
	})
}

// onBatch is the scan yield: apply the decision once it has arrived, and
// either buffer (undecided or broadcast) or route (keep/hybrid) this batch.
func (a *adaptJENWorker) onBatch(sb *batch.Batch) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if d := a.decision.Load(); a.dec == nil && d != nil {
		if err := a.applyLocked(d); err != nil {
			return err
		}
	}
	if a.dec != nil && a.dec.kind != switchBroadcast {
		return a.b.scatterBatch(sb, a.wire, a.scanKey, nil, a.routeFnLocked())
	}
	// Undecided (or switched to broadcast): copy the wire projection into
	// the local buffer; while undecided, feed the sketch and count toward
	// the K-batch observation trigger.
	wb := batch.New(len(a.wire), sb.Len())
	keys := sb.Col(a.scanKey)
	perr := sb.Each(func(i int) error {
		if a.dec == nil && !a.obsSent {
			a.sketch.Add(keys[i].Int())
		}
		wb.AppendFrom(sb, i, a.wire)
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
	return a.e.sendControl(a.me, netsim.MsgControl, a.obs, o.marshal(), metrics.AdaptBytes, []string{jenName(a.e.jen.DesignatedWorker())})
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
		if err := a.b.scatterBatch(wb, nil, a.wireKey, nil, route); err != nil {
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
// the designated worker, then wait for the decision and apply it. It does
// not close the shuffle batcher — the caller's CloseWith still owns stream
// completion.
func (a *adaptJENWorker) finish(ctx context.Context, pr *prog, lTotal, lRowBytes int64, dec string, decided **adaptDecision) {
	a.mu.Lock()
	if !a.obsSent {
		pr.fail(a.sendObsLocked())
	}
	a.mu.Unlock()
	if a.w == a.e.jen.DesignatedWorker() {
		pr.fail(a.e.coordinateSwitch(ctx, a.obs, dec, a.me, a.n, a.e.db.Workers(), lTotal, lRowBytes, decided))
	}
	_ = a.recv.Wait() // the receive reports through recvErr
	pr.fail(a.recvErr)
	a.mu.Lock()
	defer a.mu.Unlock()
	if d := a.decision.Load(); *pr.err == nil && d != nil && a.dec == nil {
		pr.fail(a.applyLocked(d))
	}
	a.e.rec.AddAt(metrics.JENShuffleHotTuples, a.w, a.hotTuples)
}

// adaptObserveT contributes one DB worker's observed |T'| — cols wire
// columns a row — to the designated fan-in on stream obs. It is sent even on
// the failure path so the fan-in always completes; under a JEN → DB filter it
// goes out before the filter wait, because the designated worker sends BF_H
// only after coordinating the switch — waiting first would deadlock the
// handshake.
func (e *Engine) adaptObserveT(pr *prog, obs string, cols, i int, tRows int64) {
	o := obsSnapshot{
		tRows:  tRows,
		tBytes: tRows * 16 * int64(cols),
	}
	pr.fail(e.sendControl(dbName(i), netsim.MsgControl, obs, o.marshal(), metrics.AdaptBytes, []string{jenName(e.jen.DesignatedWorker())}))
}

// decide is a held gate's keep-vs-broadcast handshake on edge ei: every JEN
// worker contributes its held input's size — unconditionally, even when
// failing, so the designated fan-in always completes — and the designated
// worker re-costs the edge as a broadcast from the observed total (the
// committed plan sized it from estimates that compound error edge over
// edge) and sends the decision to every JEN and DB worker. Kept, the held
// input goes out by the edge's key; switched, it stays for the probe.
func (j *jenWorker) decide(ei int) (bcast bool) {
	e, ed, pr := j.e, &j.edges[ei], j.pr
	n, desig := e.jen.Workers(), jenName(e.jen.DesignatedWorker())
	pr.fail(e.sendControl(j.me, netsim.MsgControl, j.qs+ed.names.obs, ctlPayload(j.heldRows), metrics.AdaptBytes, []string{desig}))
	if j.me == desig {
		var total int64
		err := e.recvControl(j.ctx, j.me, netsim.MsgControl, j.qs+ed.names.obs, n, addCtl(&total))
		pr.fail(err)
		kind := keepPlan
		if err == nil {
			var cur, bc float64
			kind, cur, bc, _ = e.decideSwitch(costmodel.PlanStats{
				TPrimeRows: ed.EstDimRows, TPrimeBytes: ed.EstDimBytes,
				LPrimeRows: total, LPrimeBytes: total * int64(16*j.width(ei)),
				JENWorkers: n, DBWorkers: e.db.Workers(),
			}, false)
			ed.decided = &adaptDecision{kind: kind}
			if kind == switchBroadcast {
				ed.decided.reason = fmt.Sprintf(
					"edge %s: observed intermediate ≈%d rows vs dim ≈%d rows: re-cost keep=%.3gs broadcast=%.3gs (margin %.0f%%) → broadcast",
					ed.Dim.Table, total, ed.EstDimRows, cur, bc, adaptMargin*100)
			}
		}
		pr.fail(e.sendControl(j.me, netsim.MsgControl, j.qs+ed.names.dec, ctlPayload(int64(kind)), metrics.AdaptBytes, append(e.jenNames(), e.dbNames()...)))
	}
	var d int64
	err := e.recvControl(j.ctx, j.me, netsim.MsgControl, j.qs+ed.names.dec, 1, addCtl(&d))
	pr.fail(err)
	if err == nil && switchKind(d) == switchBroadcast {
		return true
	}
	b, route := j.shuffle(ed), hashRoute(n)
	if *pr.err == nil {
		pr.fail(eachBatch(j.held)(func(src *batch.Batch) error { return b.scatterBatch(src, nil, ed.FactKeyCol, nil, route) }))
	}
	pr.fail(b.CloseWith(*pr.err))
	j.hold(nil)
	return false
}

// ctlPayload encodes one held-gate control value: an observed input
// cardinality or an agreed switchKind.
func ctlPayload(v int64) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(v))
}

// addCtl returns a recvControl merge that sums control values into sum (one
// part for a decision, n for the observation fan-in).
func addCtl(sum *int64) func([]byte) error {
	return func(p []byte) error {
		if len(p) != 8 {
			return fmt.Errorf("core: bad control payload size %d", len(p))
		}
		*sum += int64(binary.BigEndian.Uint64(p))
		return nil
	}
}
