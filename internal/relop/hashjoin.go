// Package relop implements the relational operators shared by the two query
// engines: hash tables for equi-joins and mergeable hash aggregation. The
// parallel database (internal/edw) and JEN (internal/jen) both build on
// these, just as the paper's engines share the standard parallel-database
// repertoire (hash join, hash-based aggregation, pipelining).
package relop

import (
	"fmt"
	"runtime"

	"hybridwh/internal/batch"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// HashTable is an in-memory equi-join hash table keyed by an integer join
// key column. Inserted rows are radix-partitioned by the top bits of the key
// hash and staged per partition; Build seals the table by laying each
// partition out as a flat open-addressing slot array over one value arena
// that holds the partition's rows grouped by key. A probe is one hash, a
// short linear scan of contiguous 16-byte slots and a slice of the arena,
// and a bucket's rows are adjacent in memory, so reading a bucket front to
// back is a sequential scan — no per-key allocations and no pointer
// chasing. Within a bucket, rows keep their insertion order.
//
// Insert/InsertBatch are not safe for concurrent use (callers serialize the
// build phase, as before). Build is idempotent; once it has run, Probe is
// safe for concurrent use by multiple goroutines. Probing an unsealed table
// builds it on the spot, which preserves the old single-goroutine
// insert-then-probe usage; concurrent probers must call Build first.
type HashTable struct {
	keyIdx int
	shift  uint // partition = hash >> shift; 64 means "single partition"
	parts  []htPart
	rows   int64
	built  bool
	lane   LaneFunc // nil: no lanes
}

// LaneFunc computes a sealed partition's lane: one int64 per row of rows,
// the partition's rows in group order. ok false leaves the partition
// without a lane. Build calls it once per partition, from several
// goroutines at once on a large table, so it must be safe for concurrent
// use; it must not retain rows.
type LaneFunc func(rows []types.Row) (lane []int64, ok bool)

// htChunk is one staged insert into a partition: a row as Insert received
// it, or InsertBatch's copy of a batch's rows for the partition, width
// values each.
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
// rows in group order, each aliasing the partition's one value arena.
type htPart struct {
	staged  []htChunk
	slots   []htSlot
	grouped []types.Row
	lane    []int64 // aligned with grouped; nil when the table has no lane function or it declined
	mask    uint64
}

// parallelBuildRows is the row count below which Build stays sequential:
// goroutine fan-out costs more than it saves on small tables.
const parallelBuildRows = 1 << 14

// NewHashTable creates a table keyed on column keyIdx of inserted rows, with
// one radix partition per available CPU (rounded up to a power of two).
func NewHashTable(keyIdx int) *HashTable {
	return NewHashTableParts(keyIdx, runtime.GOMAXPROCS(0))
}

// NewHashTableParts creates a table with an explicit partition count
// (rounded up to a power of two; values < 1 mean 1). Exposed so tests can
// exercise multi-partition layouts regardless of the host's CPU count.
func NewHashTableParts(keyIdx, parts int) *HashTable {
	p := 1
	for p < parts {
		p <<= 1
	}
	shift := uint(64)
	for 1<<(64-shift) < p {
		shift--
	}
	return &HashTable{keyIdx: keyIdx, shift: shift, parts: make([]htPart, p)}
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
func (h *HashTable) part(key int64) int { return int(types.Mix64(uint64(key)) >> h.shift) }

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

// Insert adds a row. The table keeps the row until Build copies it into the
// arena.
func (h *HashTable) Insert(row types.Row) error {
	if h.keyIdx >= len(row) {
		return fmt.Errorf("relop: join key column %d out of range (row has %d)", h.keyIdx, len(row))
	}
	if h.built {
		h.unseal()
	}
	p := &h.parts[h.part(row[h.keyIdx].Int())]
	p.staged = append(p.staged, htChunk{row, len(row)})
	h.rows++
	return nil
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
	if h.built {
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
	return nil
}

// Build seals the table: every partition gets its slot table and grouped
// arena laid out, and its staging is released, so a sealed table holds one
// copy of its rows. Partitions are independent, so large builds run one
// goroutine per partition with no locks. Idempotent; inserting after Build
// unseals the table and the next Build (or Probe) lays everything out again.
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
		*p = htPart{}
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

// Probe returns the rows matching the key in insertion order (nil if none).
// The rows alias the sealed table's arena: they are immutable and stay
// valid for as long as the caller holds them.
func (h *HashTable) Probe(key int64) []types.Row {
	bucket, _ := h.ProbeLane(key)
	return bucket
}

// ProbeLane is Probe that also returns the bucket's lane, element k the
// lane value of row k, or nil when the table has no lane function or the
// key's partition has no lane. The lane is sealed-table storage, immutable
// like the rows.
func (h *HashTable) ProbeLane(key int64) ([]types.Row, []int64) {
	if !h.built {
		h.Build()
	}
	return h.parts[h.part(key)].probe(key)
}

// Len returns the number of inserted rows.
func (h *HashTable) Len() int64 { return h.rows }

// MaxBucket returns the row count of the table's largest key group — the
// build-side footprint of the single most frequent join key (0 when empty).
// Skew diagnostics read it per worker: a plain hash repartition parks a hot
// key's entire group on one worker, while the hybrid skew shuffle scatters
// the group so every worker's MaxBucket stays near the mean. Builds the
// table if it is not sealed yet.
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

// EachRow visits every row, partition by partition in group order (so a
// key's rows keep their insertion order), building the table first if it
// is not sealed. The spill path uses it to dump the in-memory phase to disk
// when the budget overflows.
func (h *HashTable) EachRow(fn func(types.Row) error) error {
	h.Build()
	for i := range h.parts {
		for _, r := range h.parts[i].grouped {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}
