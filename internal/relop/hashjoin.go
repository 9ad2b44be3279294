// Package relop implements the relational operators shared by the two query
// engines: hash tables for equi-joins and mergeable hash aggregation. The
// parallel database (internal/edw) and JEN (internal/jen) both build on
// these, just as the paper's engines share the standard parallel-database
// repertoire (hash join, hash-based aggregation, pipelining).
package relop

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/mem"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// HashTable is the equi-join hash table keyed by an integer join key
// column. Inserted rows are radix-partitioned by the top bits of the key
// hash and staged per partition; Build seals the table by laying each
// partition out as a flat open-addressing slot array over one value arena
// that holds the partition's rows grouped by key. A probe is one hash, a
// short linear scan of contiguous 16-byte slots and a slice of the arena:
// a bucket's rows are adjacent, in insertion order, with no per-key
// allocation and no pointer chasing. A table made with a budget (spill.go)
// charges its partitions to the budget and evicts whole ones to disk.
//
// Insert/InsertBatch are not safe for concurrent use. Build is idempotent;
// once it has run, probes are safe for concurrent use, and an in-memory
// table takes no lock to probe. Probing an unsealed in-memory table builds
// it on the spot; concurrent probers must call Build (or FinishBuild) first.
type HashTable struct {
	keyIdx int
	shift  uint   // partition = hash >> shift; 64 means "single partition"
	salt   uint64 // xored into a key before the partition hash (a rejoin level's)
	parts  []htPart
	rows   int64
	built  bool
	lane   LaneFunc // nil: no lanes

	// A budgeted table's (spill.go); bud is nil for an in-memory table.
	bud         *mem.Budget
	ownBud      bool   // NewSpillingHashTable's private budget, closed with the table
	dir         string // where the spill directory goes ("" = os.TempDir())
	tmp         string // guarded by mu — the spill directory, made at the first eviction
	depth       int    // the rejoin level: 0 for a table a join builds
	maxDepth    int    // past it, Drain joins by block nested loop
	mu          sync.RWMutex
	reserved    int64 // guarded by mu — bytes this table holds in bud
	closed      bool  // guarded by mu
	pressureErr error // guarded by mu — an eviction under pressure failed

	// Spill statistics, stable once Drain or Close returns.
	SpilledBuildRows int64 // build rows written to disk
	SpilledProbeRows int64 // probe rows deferred to disk
	Evictions        int64 // partitions evicted under budget pressure
	Repartitions     int64 // rejoins that had to evict in turn
	NLFallbacks      int64 // block nested-loop joins past maxDepth
}

// LaneFunc computes a sealed partition's lane: one int64 per row of rows,
// the partition's rows in group order; ok false leaves it without one.
// Build may call it from several goroutines at once; it must not retain
// rows.
type LaneFunc func(rows []types.Row) (lane []int64, ok bool)

// htChunk is one staged insert into a partition: InsertBatch's copy of a
// batch's rows for the partition, or a sealed row unseal stages again,
// width values each.
type htChunk struct {
	vals  []types.Value
	width int
}

// htSlot is one open-addressing slot: a key and its group's position in the
// partition's grouped rows. cnt == 0 marks an empty slot; during the
// scatter pass of build, off is the group's write cursor, after it the
// group occupies grouped[off-cnt : off].
type htSlot struct {
	key int64
	off int32
	cnt int32
}

// htPart is one radix partition: the rows staged since the last Build, in
// insertion order, and, once sealed, the slot table and the partition's
// rows in group order, each aliasing the partition's one value arena; in a
// budgeted table also its charge and, once evicted, its files.
type htPart struct {
	staged  []htChunk
	slots   []htSlot
	grouped []types.Row
	lane    []int64 // aligned with grouped; nil when the table has no lane function or it declined
	mask    uint64

	bytes    int64      // the budget charge of the resident rows
	spilled  *spillFile // non-nil once evicted: every build row is on disk
	deferred *spillFile // probe rows for Drain
	mu       sync.Mutex // serializes appends to deferred: probers share the table
}

// parallelBuildRows is the row count below which Build stays sequential:
// goroutine fan-out costs more than it saves on small tables.
const parallelBuildRows = 1 << 14

// NewHashTable creates a table keyed on column keyIdx of inserted rows, with
// parts radix partitions (rounded up to a power of two; values < 1 mean 1):
// the units of the parallel build, sized by the caller's plan.
func NewHashTable(keyIdx, parts int) *HashTable {
	h := &HashTable{keyIdx: keyIdx}
	h.partition(parts)
	return h
}

// partition lays out n empty radix partitions, rounded up to a power of 2.
func (h *HashTable) partition(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	h.shift = 64
	for 1<<(64-h.shift) < p {
		h.shift--
	}
	h.parts = make([]htPart, p)
}

// WithLane gives the table a lane function and returns it; call it before
// the first Build. Every Build then computes each partition's lane over its
// group-ordered rows, so a bucket's lane is one contiguous run aligned with
// its rows (see ProbeLane). A nil fn means no lanes.
func (h *HashTable) WithLane(fn LaneFunc) *HashTable {
	h.lane = fn
	return h
}

// part returns the index of key's partition.
func (h *HashTable) part(key int64) int { return int(types.Mix64(uint64(key)^h.salt) >> h.shift) }

// unseal returns a sealed table's rows to staging ahead of a new insert.
// Group order keeps every key's rows in insertion order, which is all the
// order the next Build needs.
func (h *HashTable) unseal() {
	for i := range h.parts {
		p := &h.parts[i]
		for _, r := range p.grouped {
			p.staged = append(p.staged, htChunk{r, len(r)})
		}
		p.slots, p.grouped, p.lane = nil, nil, nil
	}
	h.built = false
}

// Insert adds one row: a one-row InsertBatch.
func (h *HashTable) Insert(row types.Row) error {
	b := batch.New(len(row), 1)
	b.AppendRow(row)
	return h.InsertBatch(b)
}

// InsertBatch adds every live row of b, copied into one exact-size staging
// chunk per partition it touches, so a batch insert costs a handful of
// allocations instead of one per row.
func (h *HashTable) InsertBatch(b *batch.Batch) error {
	ncols := b.NumCols()
	if h.keyIdx >= ncols {
		return fmt.Errorf("relop: join key column %d out of range (batch has %d)", h.keyIdx, ncols)
	}
	if b.Len() == 0 {
		return nil
	}
	if h.bud != nil {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.built {
			return fmt.Errorf("relop: insert after FinishBuild")
		}
		if h.pressureErr != nil {
			return h.pressureErr
		}
	} else if h.built {
		h.unseal()
	}
	keys := b.Col(h.keyIdx)
	counts := make([]int, len(h.parts))
	_ = b.Each(func(i int) error {
		counts[h.part(keys[i].Int())]++
		return nil
	})
	for i, n := range counts {
		if n > 0 {
			h.parts[i].staged = append(h.parts[i].staged, htChunk{make([]types.Value, 0, n*ncols), ncols})
		}
	}
	_ = b.Each(func(i int) error {
		p := &h.parts[h.part(keys[i].Int())]
		last := &p.staged[len(p.staged)-1]
		for j := 0; j < ncols; j++ {
			last.vals = append(last.vals, b.Col(j)[i])
		}
		return nil
	})
	h.rows += int64(b.Len())
	if h.bud == nil {
		return nil
	}
	for i, n := range counts {
		if n > 0 {
			if err := h.admitLocked(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Build seals the table: every partition gets its slot table and grouped
// arena laid out and its staging released, one goroutine per partition on
// a large table. Idempotent; inserting into a sealed in-memory table
// unseals it, and the next Build (or probe) lays everything out again.
func (h *HashTable) Build() {
	if h.built {
		return
	}
	if len(h.parts) > 1 && h.rows >= parallelBuildRows {
		// Error is always nil: htPart.build cannot fail.
		_ = par.ForEach(len(h.parts), func(i int) error {
			h.parts[i].build(h.keyIdx, h.lane)
			return nil
		})
	} else {
		for i := range h.parts {
			h.parts[i].build(h.keyIdx, h.lane)
		}
	}
	h.built = true
}

// eachStaged visits the partition's staged rows in insertion order.
func (p *htPart) eachStaged(fn func(types.Row)) {
	for _, c := range p.staged {
		for off := 0; off < len(c.vals); off += c.width {
			fn(c.vals[off : off+c.width : off+c.width])
		}
	}
}

// build lays out one partition: count keys into the slot table (linear
// probing, load factor <= 0.5), prefix-sum group offsets, scatter the
// staged rows into group order (a counting sort by key, stable in insertion
// order), copy them, group by group, into one value arena the grouped rows
// alias, compute the lane over the grouped rows, and drop the staging.
func (p *htPart) build(keyIdx int, lane LaneFunc) {
	n, nvals := 0, 0
	for _, c := range p.staged {
		n += len(c.vals) / c.width
		nvals += len(c.vals)
	}
	if n == 0 {
		p.staged = nil
		return
	}
	size := uint64(8)
	for size < uint64(2*n) {
		size <<= 1
	}
	p.mask = size - 1
	p.slots = make([]htSlot, size)
	p.eachStaged(func(r types.Row) {
		s := p.slot(r[keyIdx].Int())
		s.key, s.cnt = r[keyIdx].Int(), s.cnt+1
	})
	var off int32
	for i := range p.slots {
		s := &p.slots[i]
		if s.cnt > 0 {
			s.off = off
			off += s.cnt
		}
	}
	p.grouped = make([]types.Row, n)
	p.eachStaged(func(r types.Row) {
		s := p.slot(r[keyIdx].Int())
		p.grouped[s.off] = r
		s.off++
	})
	arena := make([]types.Value, nvals)
	for g, r := range p.grouped {
		w := copy(arena, r)
		p.grouped[g] = arena[:w:w]
		arena = arena[w:]
	}
	if lane != nil {
		if l, ok := lane(p.grouped); ok && len(l) == len(p.grouped) {
			p.lane = l
		}
	}
	p.staged = nil
}

// slot returns key's slot, or the empty slot where it belongs.
func (p *htPart) slot(key int64) *htSlot {
	i := types.Mix64(uint64(key)) & p.mask
	for {
		s := &p.slots[i]
		if s.cnt == 0 || s.key == key {
			return s
		}
		i = (i + 1) & p.mask
	}
}

// probe returns the grouped rows for key (nil if absent) and their lane
// (nil if the partition has none).
func (p *htPart) probe(key int64) ([]types.Row, []int64) {
	if len(p.slots) == 0 {
		return nil, nil
	}
	s := p.slot(key)
	if s.cnt == 0 {
		return nil, nil
	}
	lo, hi := s.off-s.cnt, s.off
	var lane []int64
	if p.lane != nil {
		lane = p.lane[lo:hi]
	}
	return p.grouped[lo:hi], lane
}

// Probe returns the rows matching the key in insertion order (nil if none):
// immutable sealed-table storage, valid for as long as the caller holds it.
func (h *HashTable) Probe(key int64) []types.Row {
	bucket, _ := h.ProbeLane(key)
	return bucket
}

// ProbeLane is Probe that also returns the bucket's lane, element k row k's
// value (nil when the key's partition has none), immutable like the rows.
func (h *HashTable) ProbeLane(key int64) ([]types.Row, []int64) {
	if !h.built {
		h.Build()
	}
	return h.parts[h.part(key)].probe(key)
}

// Len returns the number of inserted rows.
func (h *HashTable) Len() int64 { return h.rows }

// MaxBucket returns the row count of the table's largest key group (0 when
// empty), building the table if need be: skew diagnostics read it per
// worker, where a plain hash repartition parks a hot key's group on one.
func (h *HashTable) MaxBucket() int64 {
	if !h.built {
		h.Build()
	}
	var most int32
	for i := range h.parts {
		for _, s := range h.parts[i].slots {
			if s.cnt > most {
				most = s.cnt
			}
		}
	}
	return int64(most)
}

// BucketFunc receives one probe row, which may alias scratch storage valid
// only for the call, and its non-empty bucket and the bucket's lane (nil:
// none), both immutable sealed-table storage the caller may keep.
type BucketFunc func(probeRow types.Row, bucket []types.Row, lane []int64) error

// ProbeBuckets probes every live row of b on its key column keyIdx and
// calls emit once per probe row with a non-empty bucket, in row order. The
// probe row is b's row or, with proj, its columns proj (a scan batch's wire
// projection, which must keep the key); it is materialized only for a hit
// or a deferral, so a miss costs one table probe. A budgeted table defers
// the probe rows of evicted partitions to disk, and Drain emits their
// buckets. Safe for concurrent use once the table is sealed.
func (h *HashTable) ProbeBuckets(b *batch.Batch, keyIdx int, proj []int, emit BucketFunc) error {
	if keyIdx >= b.NumCols() {
		return fmt.Errorf("relop: probe key column %d out of range", keyIdx)
	}
	rowKey := keyIdx // the key's column in the materialized probe row
	if h.bud != nil {
		h.mu.RLock()
		defer h.mu.RUnlock()
		if !h.built {
			return fmt.Errorf("relop: probe before FinishBuild")
		}
		if proj != nil {
			rowKey = slices.Index(proj, keyIdx)
		}
	} else if !h.built {
		h.Build()
	}
	keys := b.Col(keyIdx)
	var row types.Row
	return b.Each(func(i int) error {
		key := keys[i].Int()
		p := &h.parts[h.part(key)]
		if p.spilled != nil {
			if rowKey < 0 {
				return fmt.Errorf("relop: probe key column %d not in the projection", keyIdx)
			}
			row = project(b, i, proj, row)
			return h.deferProbe(p, row, rowKey)
		}
		bucket, lane := p.probe(key)
		if len(bucket) == 0 {
			return nil
		}
		row = project(b, i, proj, row)
		return emit(row, bucket, lane)
	})
}

// project materializes row i of b, or its columns proj, into dst.
func project(b *batch.Batch, i int, proj []int, dst types.Row) types.Row {
	if proj == nil {
		return b.RowAt(i, dst)
	}
	dst = dst[:0]
	for _, c := range proj {
		dst = append(dst, b.Col(c)[i])
	}
	return dst
}

// MemJoinTable is a shim over an in-memory HashTable, kept only because the
// frozen hwperf replay (bench/hwperf/replay.go) compiles against it. New
// code uses HashTable.
type MemJoinTable struct{ H *HashTable }

// NewMemJoinTable wraps a new in-memory hash table with one partition per
// available CPU.
func NewMemJoinTable(keyIdx int) *MemJoinTable {
	return &MemJoinTable{H: NewHashTable(keyIdx, runtime.GOMAXPROCS(0))}
}

// InsertBatch is HashTable.InsertBatch.
func (m *MemJoinTable) InsertBatch(b *batch.Batch) error { return m.H.InsertBatch(b) }

// FinishBuild is HashTable.FinishBuild.
func (m *MemJoinTable) FinishBuild() error { return m.H.FinishBuild() }

// ProbeBatch is ProbeBuckets calling emit once per (build row, probe row)
// pair.
func (m *MemJoinTable) ProbeBatch(b *batch.Batch, keyIdx int, emit func(buildRow, probeRow types.Row) error) error {
	return m.H.ProbeBuckets(b, keyIdx, nil, func(probeRow types.Row, bucket []types.Row, _ []int64) error {
		for _, br := range bucket {
			if err := emit(br, probeRow); err != nil {
				return err
			}
		}
		return nil
	})
}
