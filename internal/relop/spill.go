package relop

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"hybridwh/internal/batch"
	"hybridwh/internal/mem"
	"hybridwh/internal/types"
)

// The paper's JEN "requires that all data fit in memory for the local
// hash-based join on each worker. In the future, we plan to support spilling
// to disk to overcome this limitation." A budgeted HashTable is that
// extension: a dynamic hybrid hash join (Jahangiri, Carey & Freytag, arXiv
// 2112.02480) whose unit of residency is the table's own radix partition.
// Under budget pressure the largest resident partition is evicted to disk
// (largest-first frees the most memory per eviction); probe rows for
// spilled partitions follow them to disk, and Drain joins each spilled
// partition: by a rejoin table one level down, whose depth-salted radix
// splits it again if it still does not fit, and past maxDepth levels (a
// hot key no hash can split) by a budget-sized block nested loop. No input
// is beyond its budget.

const (
	spillFanout     = 16  // a budgeted table's radix partitions, at every level
	defaultMaxDepth = 3   // rejoin levels: 16^3 × budget is beyond any realistic skew
	rowOverhead     = 48  // a row's charge is its encoded size plus this
	spillFrameRows  = 256 // rows per spill-file frame, the unit of read-back
)

// NewSpillingHashTable creates a table keyed on keyIdx with a private
// in-memory byte budget. Spill files go under dir ("" = os.TempDir()).
func NewSpillingHashTable(keyIdx int, budgetBytes int64, dir string) (*HashTable, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("relop: spill budget must be positive")
	}
	h := NewSharedSpillingHashTable(keyIdx, mem.NewBudget(budgetBytes), dir)
	h.ownBud = true
	return h, nil
}

// NewSharedSpillingHashTable creates a table charging bud, shared with the
// query's other operators (a nil bud makes an in-memory table), whose
// pressure callback has this table evict partitions when any of them runs
// out. No file or directory is made before the first eviction.
func NewSharedSpillingHashTable(keyIdx int, bud *mem.Budget, dir string) *HashTable {
	h := newBudgeted(keyIdx, bud, dir, spillFanout, defaultMaxDepth, 0)
	bud.OnPressure(h.shed)
	return h
}

// newBudgeted makes a budgeted table at rejoin level depth.
func newBudgeted(keyIdx int, bud *mem.Budget, dir string, fanout, maxDepth, depth int) *HashTable {
	h := NewHashTable(keyIdx, fanout)
	h.bud, h.dir, h.maxDepth, h.depth = bud, dir, maxDepth, depth
	h.salt = uint64(depth) * 0x9E3779B97F4A7C15
	return h
}

// Configure sets a budgeted table's fan-out (a power of two) and recursion
// depth bound before its first insert, for tests.
func (h *HashTable) Configure(fanout, maxDepth int) error {
	if h.rows > 0 || fanout < 2 || fanout&(fanout-1) != 0 || maxDepth < 0 {
		return fmt.Errorf("relop: invalid Configure(%d, %d) of a table holding %d rows", fanout, maxDepth, h.rows)
	}
	h.partition(fanout)
	h.maxDepth = maxDepth
	return nil
}

// admitLocked charges the chunk just staged in partition i to the budget,
// evicting the largest resident partitions until it fits. When partition i
// is, or becomes, spilled the chunk goes to its file instead (unless an
// eviction already took it there).
func (h *HashTable) admitLocked(i int) error {
	p := &h.parts[i]
	if p.spilled == nil {
		c := p.staged[len(p.staged)-1]
		var n int64
		for off := 0; off < len(c.vals); off += c.width {
			n += int64(types.EncodedRowSize(c.vals[off:off+c.width])) + rowOverhead
		}
		for p.spilled == nil {
			// A rejoin table first has the query's other operators shed
			// (Reserve), as rejoining a whole partition would.
			if h.depth == 0 && h.bud.TryReserve(n) || h.depth > 0 && h.bud.Reserve(n) == nil {
				h.reserved += n
				p.bytes += n
				return nil
			}
			v := h.largestResidentLocked()
			if v < 0 {
				v = i // nothing else to free: the chunk itself goes to disk
			}
			if _, err := h.evictLocked(v); err != nil {
				return err
			}
		}
	}
	_, err := h.evictLocked(i)
	return err
}

// largestResidentLocked picks the eviction victim: the resident partition
// holding the most bytes, the first of equals, or -1 if none holds any.
func (h *HashTable) largestResidentLocked() int {
	best, most := -1, int64(0)
	for i := range h.parts {
		if p := &h.parts[i]; p.spilled == nil && p.bytes > most {
			best, most = i, p.bytes
		}
	}
	return best
}

// evictLocked spills partition i's rows, staged or sealed, to its build
// file, where its later inserts and probes go too; it returns bytes freed.
func (h *HashTable) evictLocked(i int) (int64, error) {
	p := &h.parts[i]
	if p.spilled == nil {
		f, err := h.newSpillFileLocked()
		if err != nil {
			return 0, err
		}
		p.spilled = f
		h.Evictions++
	}
	n := p.spilled.n
	p.eachStaged(p.spilled.add)
	for _, r := range p.grouped {
		p.spilled.add(r)
	}
	h.SpilledBuildRows += p.spilled.n - n
	p.staged, p.slots, p.grouped, p.lane = nil, nil, nil, nil
	freed := p.bytes
	h.releaseLocked(freed)
	p.bytes = 0
	return freed, p.spilled.err
}

// releaseLocked returns n of the table's bytes to the budget.
func (h *HashTable) releaseLocked(n int64) {
	h.bud.Release(n)
	h.reserved -= n
}

// shed is the budget pressure callback: evict largest-first until need
// bytes are freed. TryLock makes it safe from any goroutine: during the
// table's own operations and probes it declines.
func (h *HashTable) shed(need int64) int64 {
	if !h.mu.TryLock() {
		return 0
	}
	defer h.mu.Unlock()
	var freed int64
	for !h.closed && freed < need {
		i := h.largestResidentLocked()
		if i < 0 {
			break
		}
		n, err := h.evictLocked(i)
		if err != nil {
			h.pressureErr = err // for the owner's next table operation
			break
		}
		freed += n
	}
	return freed
}

// FinishBuild seals the table (Build) for concurrent probing. A sealed
// budgeted table takes no more inserts.
func (h *HashTable) FinishBuild() error {
	if h.bud != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
	}
	h.Build()
	return h.pressureErr
}

// deferProbe appends a probe row of the spilled partition p to its probe
// file, under the partition's lock.
func (h *HashTable) deferProbe(p *htPart, row types.Row, rowKey int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.deferred == nil {
		f, err := h.newSpillFileLocked() // the build file made the directory
		if err != nil {
			return err
		}
		f.key = rowKey
		p.deferred = f
	}
	p.deferred.add(row)
	return p.deferred.err
}

// Drain emits the buckets a budgeted table deferred, as ProbeBuckets does,
// then closes the table. The resident partitions' memory is returned first,
// so the rejoins see the whole budget.
func (h *HashTable) Drain(emit BucketFunc) error {
	if h.bud == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	defer h.closeLocked()
	if h.pressureErr != nil {
		return h.pressureErr
	}
	for i := range h.parts {
		if p := &h.parts[i]; p.spilled == nil {
			h.releaseLocked(p.bytes)
			p.bytes, p.staged, p.slots, p.grouped, p.lane = 0, nil, nil, nil, nil
		}
	}
	for i := range h.parts {
		if p := &h.parts[i]; p.deferred != nil {
			h.SpilledProbeRows += p.deferred.n
			if err := h.rejoinLocked(p.spilled, p.deferred, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// rejoinLocked joins a spilled partition's build file bf with its probe
// file pf. Below maxDepth the build rows go into a budgeted table one level
// down: a plain hash rejoin when they fit, a repartitioning pass by the
// next salt when it evicts and drains in turn. At maxDepth, nested loop.
func (h *HashTable) rejoinLocked(bf, pf *spillFile, emit BucketFunc) error {
	if h.depth >= h.maxDepth {
		return h.nestedLoopLocked(bf, pf, emit)
	}
	sub := newBudgeted(h.keyIdx, h.bud, h.tmp, len(h.parts), h.maxDepth, h.depth+1)
	sub.lane = h.lane
	defer sub.Close()
	err := bf.each(sub.InsertBatch)
	if err == nil {
		err = sub.FinishBuild()
	}
	if err == nil {
		err = pf.each(func(b *batch.Batch) error { return sub.ProbeBuckets(b, pf.key, nil, emit) })
	}
	if err == nil {
		err = sub.Drain(emit)
	}
	if sub.Evictions > 0 {
		h.Repartitions++
	}
	h.Repartitions += sub.Repartitions
	h.NLFallbacks += sub.NLFallbacks
	return err
}

// nestedLoopLocked builds budget-sized chunks of the build file, frame by
// frame, into an in-memory table of as many partitions as the table that
// spilled, and streams the probe file past each: a block nested-loop join,
// exact even for a key larger than the budget. A build file the budget
// admits whole is one chunk, a plain rejoin; one it does not counts in
// NLFallbacks.
func (h *HashTable) nestedLoopLocked(bf, pf *spillFile, emit BucketFunc) error {
	var ht *HashTable
	var held int64
	over := false
	flush := func() error {
		if ht == nil {
			return nil
		}
		err := pf.each(func(b *batch.Batch) error { return ht.ProbeBuckets(b, pf.key, nil, emit) })
		h.releaseLocked(held)
		ht, held = nil, 0
		return err
	}
	err := bf.each(func(b *batch.Batch) error {
		n := int64(batch.EncodedSize(b)) + int64(b.Len())*rowOverhead
		if !h.bud.TryReserve(n) {
			over = true
			if err := flush(); err != nil {
				return err
			}
			// The chunk must make progress even when siblings hold the
			// whole budget: force its first frame in, recording overshoot.
			h.bud.Force(n)
		}
		if ht == nil {
			ht = NewHashTable(h.keyIdx, len(h.parts)).WithLane(h.lane)
		}
		h.reserved += n
		held += n
		return ht.InsertBatch(b)
	})
	if err == nil {
		err = flush()
	}
	if over {
		h.NLFallbacks++
	}
	return err
}

// Close releases a budgeted table's files, directory and charge without
// draining (error paths); Drain closes it itself. Closing twice is a no-op.
func (h *HashTable) Close() error {
	if h.bud != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.closeLocked()
	}
	return nil
}

func (h *HashTable) closeLocked() {
	if h.closed {
		return
	}
	h.closed = true
	for i := range h.parts {
		p := &h.parts[i]
		p.spilled.close()
		p.deferred.close()
		p.spilled, p.deferred, p.staged, p.slots, p.grouped, p.lane = nil, nil, nil, nil, nil, nil
	}
	if h.tmp != "" {
		os.RemoveAll(h.tmp)
	}
	h.releaseLocked(h.reserved)
	if h.ownBud {
		h.bud.Close()
	}
}

// spillFile holds a spilled partition's build rows or deferred probe rows:
// frames, each a batch in the wire codec behind its uint32 length.
type spillFile struct {
	f    *os.File
	pend *batch.Batch // rows not yet framed
	buf  []byte       // the frame being written or read
	n    int64        // rows added
	key  int          // a probe file's key column
	err  error        // the first write error, returned by every flush after
}

// newSpillFileLocked creates a spill file, and the table's spill directory
// at its first eviction.
func (h *HashTable) newSpillFileLocked() (*spillFile, error) {
	if h.tmp == "" {
		tmp, err := os.MkdirTemp(h.dir, "hwspill-") // "": os.TempDir()
		if err != nil {
			return nil, err
		}
		h.tmp = tmp
	}
	f, err := os.CreateTemp(h.tmp, "part-")
	if err != nil {
		return nil, err
	}
	return &spillFile{f: f}, nil
}

// add copies a row into the file's pending frame, writing the frame when
// it is full.
func (sf *spillFile) add(row types.Row) {
	if sf.pend == nil {
		sf.pend = batch.New(len(row), spillFrameRows)
	}
	sf.pend.AppendRow(row)
	if sf.n++; sf.pend.Size() == spillFrameRows {
		_ = sf.flush() // the error sticks in sf.err
	}
}

// flush writes the pending rows as one frame.
func (sf *spillFile) flush() error {
	if sf.err == nil && sf.pend != nil && sf.pend.Size() > 0 {
		sf.buf = batch.AppendBatch(append(sf.buf[:0], 0, 0, 0, 0), sf.pend)
		binary.LittleEndian.PutUint32(sf.buf, uint32(len(sf.buf)-4))
		sf.pend.Reset()
		_, sf.err = sf.f.Write(sf.buf)
	}
	return sf.err
}

// each reads the file back from its start, one frame at a time, decoding
// each frame into one reused batch for fn.
func (sf *spillFile) each(fn func(*batch.Batch) error) error {
	if err := sf.flush(); err != nil {
		return err
	}
	r := io.NewSectionReader(sf.f, 0, math.MaxInt64)
	b := batch.New(0, 0)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		sf.buf = slices.Grow(sf.buf[:0], n)[:n]
		if _, err := io.ReadFull(r, sf.buf); err != nil {
			return fmt.Errorf("relop: truncated spill file %s: %w", sf.f.Name(), err)
		}
		if err := batch.DecodeBatch(sf.buf, b); err != nil {
			return fmt.Errorf("relop: corrupt spill file %s: %w", sf.f.Name(), err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// close closes the file; closeLocked removes the directory it is in.
func (sf *spillFile) close() {
	if sf != nil {
		sf.f.Close()
	}
}
