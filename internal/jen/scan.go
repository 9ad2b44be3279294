package jen

import (
	"fmt"
	"sync"

	"hybridwh/internal/batch"
	"hybridwh/internal/bloom"
	"hybridwh/internal/expr"
	"hybridwh/internal/format"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// KeyFilter tests whether a join key can participate in the join. The
// Bloom-filter algorithms use BloomKeyFilter; the exact semijoin baseline
// uses a key set.
type KeyFilter interface {
	TestKey(key int64) bool
}

// KeySink collects the join keys of the rows that survive a scan: BF_H for
// the zigzag join, the exact L' key set for the semijoin. Empty returns a
// fresh sink of the same kind and geometry, and Union folds a sink of the
// same kind in — the per-thread pattern of ScanSpec.Threads.
type KeySink interface {
	AddKey(key int64)
	Empty() KeySink
	Union(other KeySink) error
}

// BloomKeyFilter adapts a Bloom filter to KeyFilter and KeySink.
type BloomKeyFilter struct{ F *bloom.Filter }

// TestKey implements KeyFilter.
func (b BloomKeyFilter) TestKey(key int64) bool {
	return b.F.TestHash(types.BloomHashKey(key))
}

// AddKey implements KeySink.
func (b BloomKeyFilter) AddKey(key int64) { b.F.AddHash(types.BloomHashKey(key)) }

// Empty implements KeySink: an empty filter of the same geometry.
func (b BloomKeyFilter) Empty() KeySink {
	return BloomKeyFilter{F: bloom.New(b.F.MBits(), b.F.K())}
}

// Union implements KeySink.
func (b BloomKeyFilter) Union(other KeySink) error {
	o, ok := other.(BloomKeyFilter)
	if !ok {
		return fmt.Errorf("jen: cannot union a Bloom filter with %T", other)
	}
	return b.F.Union(o.F)
}

// CascadeFilter pairs a key filter with the projected-layout column it
// tests, so an N-way scan can apply one filter per join edge.
type CascadeFilter struct {
	Filter KeyFilter
	KeyIdx int
}

// ScanSpec describes one worker's filtered, projected table scan — the read
// threads plus process thread of Figure 7. Rows that survive every filter
// are handed to the caller's yield, which typically partitions them into
// send buffers (repartition/zigzag), probes or builds hash tables
// (broadcast), or streams them to a DB worker (DB-side join).
type ScanSpec struct {
	Plan   *ScanPlan
	Worker int
	// Proj lists file-schema columns to materialize; output rows are in
	// Proj order. nil keeps all columns.
	Proj []int
	// Pred is the local predicate over the *projected* layout.
	Pred expr.Expr
	// Pruner holds row-group range constraints over the *file* schema
	// (HWC predicate pushdown).
	Pruner *format.Pruner
	// Cascade applies key filters in order, each against its own key
	// column of the projected layout: BF_DB or the semijoin's key set, or
	// the cascaded semi-join reduction of an N-way plan, where every
	// dimension's Bloom filter drops fact rows before they ship.
	Cascade []CascadeFilter
	// DBFilter, when set, is a first Cascade entry on BloomKeyIdx. The
	// engine passes Cascade; bench/hwperf's scan replay sets this.
	DBFilter KeyFilter
	// BuildKeys, when set, collects the join key of every surviving row
	// (BF_H construction during the scan — zigzag step 3b — or the
	// semijoin's L' key set). With Threads > 1 each process goroutine fills
	// a private Empty() twin; the twins are Union-ed into BuildKeys at the
	// end, so the final sink is independent of batch interleaving.
	BuildKeys KeySink
	// BloomKeyIdx is the join-key column, in the projected layout, whose
	// keys BuildKeys collects (and DBFilter tests).
	BloomKeyIdx int
	// Progress, when set, receives live (processed, survived) row counts as
	// each batch clears the filter stage — the mid-scan observation tap for
	// adaptive execution. Unlike BuildKeys it is shared across
	// threads directly (it is atomic), so its counts are visible while the
	// scan is still running.
	Progress *Progress
	// Threads is the number of process goroutines consuming scanned batches
	// (the morsel workers of the paper's Figure 7 multi-threaded JEN
	// worker). 0 or 1 runs the process stage on the caller's goroutine,
	// byte-for-byte the sequential pipeline. With Threads > 1, yield is
	// called concurrently and must be safe for concurrent use.
	Threads int
	// Mem, when set, is the query's memory budget: the scan's batch pool
	// charges loaned batches against it, so a query's scan buffers count
	// toward its grant alongside its join tables and aggregates.
	Mem *mem.Budget
}

// projWidth returns the projected column count of the spec's output layout.
func (spec *ScanSpec) projWidth() int {
	if spec.Proj != nil {
		return len(spec.Proj)
	}
	return spec.Plan.Table.Schema.Len()
}

// ScanFilterBatches runs the pipelined scan batch-at-a-time: one read
// goroutine per disk decodes pooled columnar batches, narrows each batch's
// selection with the predicate and the key-filter cascade,
// and feeds it to the process stage, which populates BF_H from the
// survivors and yields the batch. On HWC the reader decodes only the
// columns those filters read before filtering, and the rest for the
// survivors alone (format.ScanHWCFiltered). Reading and processing overlap,
// as in the paper's worker (reads per disk, one process thread).
//
// Yielded batches are on loan: they are valid only for the duration of the
// yield call and are returned to the scan's pool afterwards, so consumers
// must copy anything they keep (shuffle buffers and hash-table inserts
// already do).
func (c *Cluster) ScanFilterBatches(spec ScanSpec, yield func(*batch.Batch) error) error {
	units := spec.Plan.Units[spec.Worker]
	if len(units) == 0 {
		return nil
	}
	// Partition units by disk; remote units (-1) form their own stream, as
	// a network-read thread would.
	byDisk := map[int][]WorkUnit{}
	for _, u := range units {
		byDisk[u.Disk] = append(byDisk[u.Disk], u)
	}
	disks := make([]int, 0, len(byDisk))
	for d := range byDisk {
		disks = append(disks, d)
	}

	pool := batch.NewPool(spec.projWidth(), c.cfg.BatchRows)
	if spec.Mem != nil {
		pool.SetAccounter(spec.Mem)
	}
	batchCh := make(chan *batch.Batch, 4*len(disks))
	stop := make(chan struct{})
	var stopOnce sync.Once

	var g par.Group
	var scanStats struct {
		sync.Mutex
		s format.ScanStats
	}
	for _, d := range disks {
		us := byDisk[d]
		g.Go(func() error {
			filter := spec.readerFilter()
			for _, u := range us {
				st, err := c.scanUnitBatches(u, spec, filter, pool, func(b *batch.Batch) error {
					select {
					case batchCh <- b:
						return nil
					case <-stop:
						pool.Put(b)
						return errScanStopped
					}
				})
				scanStats.Lock()
				scanStats.s.Add(st)
				scanStats.Unlock()
				if err == errScanStopped {
					return nil
				}
				if err != nil {
					stopOnce.Do(func() { close(stop) })
					return fmt.Errorf("jen: worker %d scan %s: %w", spec.Worker, u.Path, err)
				}
			}
			return nil
		})
	}
	// The closer joins the readers and seals the channel; its own Wait below
	// hands the reader error back without an unabortable channel receive.
	var closer par.Group
	closer.Go(func() error {
		err := g.Wait()
		close(batchCh)
		return err
	})

	// Process stage. The "processed" counter charges physical rows — what
	// the paper's process thread pulls off the read queue — so selections
	// the readers narrowed do not change it. One morsel worker per
	// spec.Threads; each fills its key sink and yields independently, always
	// draining the channel after a failure so readers never block forever.
	threads := spec.Threads
	if threads < 1 {
		threads = 1
	}
	locals := make([]KeySink, threads)
	work := func(t int) error {
		sink := spec.BuildKeys
		if sink != nil && threads > 1 {
			sink = sink.Empty()
			locals[t] = sink
		}
		var procErr error
		var processed int64
		var hashes []uint64
		for b := range batchCh {
			if procErr != nil {
				pool.Put(b) // drain so readers do not block forever
				continue
			}
			processed += int64(b.Size())
			if sink != nil && b.Len() > 0 {
				addKeys(sink, b, spec.BloomKeyIdx, &hashes)
			}
			spec.Progress.Add(int64(b.Size()), int64(b.Len()))
			if b.Len() > 0 {
				if err := yield(b); err != nil {
					procErr = err
				}
			}
			pool.Put(b)
			if procErr != nil {
				stopOnce.Do(func() { close(stop) })
			}
		}
		c.rec.AddAt(metrics.JENProcessTuples, spec.Worker, processed)
		c.rec.AddAt(metrics.JENMorselTuples, t, processed)
		return procErr
	}
	var procErr error
	if threads == 1 {
		procErr = work(0)
	} else {
		var pg par.Group
		for t := 0; t < threads; t++ {
			t := t
			pg.Go(func() error { return work(t) })
		}
		procErr = pg.Wait()
		if spec.BuildKeys != nil && procErr == nil {
			// Union is commutative, so the merged sink does not depend on
			// which thread processed which batch.
			for _, l := range locals {
				if err := spec.BuildKeys.Union(l); err != nil {
					procErr = err
					break
				}
			}
		}
	}
	rerr := closer.Wait()

	c.rec.AddAt(metrics.JENScanBytes, spec.Worker, scanStats.s.BytesRead)
	c.rec.AddAt(metrics.JENScanRows, spec.Worker, scanStats.s.RowsRead)

	if procErr != nil {
		return procErr
	}
	return rerr
}

// readerFilter is one read goroutine's filter: the predicate, then the
// cascade (DBFilter first), with the goroutine's own hash and hit scratch.
// Its early columns are the ones those filters read. Bloom filters run as
// hash-batch kernels; other key filters go row-at-a-time.
func (spec *ScanSpec) readerFilter() *format.Filter {
	cascade := spec.Cascade
	if spec.DBFilter != nil {
		cascade = append([]CascadeFilter{{Filter: spec.DBFilter, KeyIdx: spec.BloomKeyIdx}}, cascade...)
	}
	early := expr.ColumnSet(spec.Pred)
	for _, cf := range cascade {
		early = append(early, cf.KeyIdx)
	}
	var hashes []uint64
	var hits []bool
	return &format.Filter{Early: early, Apply: func(b *batch.Batch) error {
		if err := expr.FilterBatch(spec.Pred, b); err != nil {
			return err
		}
		for _, cf := range cascade {
			applyKeyFilter(b, cf.Filter, cf.KeyIdx, &hashes, &hits)
		}
		return nil
	}}
}

// addKeys adds the join keys (column keyIdx) of b's live rows to sink, a
// Bloom sink by hash batch, any other row-at-a-time.
func addKeys(sink KeySink, b *batch.Batch, keyIdx int, hashes *[]uint64) {
	keys := b.Col(keyIdx)
	if bf, isBloom := sink.(BloomKeyFilter); isBloom {
		bf.F.AddHashes(keyHashes(b, keys, hashes))
		return
	}
	_ = b.Each(func(i int) error {
		sink.AddKey(keys[i].Int())
		return nil
	})
}

// applyKeyFilter drops the live rows of b whose join key (column keyIdx) f
// rejects.
func applyKeyFilter(b *batch.Batch, f KeyFilter, keyIdx int, hashes *[]uint64, hits *[]bool) {
	if b.Len() == 0 {
		return
	}
	keys := b.Col(keyIdx)
	bf, isBloom := f.(BloomKeyFilter)
	if !isBloom {
		b.Filter(func(i int) bool { return f.TestKey(keys[i].Int()) })
		return
	}
	*hits = bf.F.TestHashes(keyHashes(b, keys, hashes), (*hits)[:0])
	j := 0
	res := *hits
	b.Filter(func(int) bool { ok := res[j]; j++; return ok })
}

// keyHashes fills the scratch slice with the Bloom hashes of b's live keys.
func keyHashes(b *batch.Batch, keys []types.Value, hashes *[]uint64) []uint64 {
	hs := (*hashes)[:0]
	_ = b.Each(func(i int) error {
		hs = append(hs, types.BloomHashKey(keys[i].Int()))
		return nil
	})
	*hashes = hs
	return hs
}

// errScanStopped aborts a reader when the process stage has failed.
var errScanStopped = fmt.Errorf("jen: scan stopped")

// scanUnitBatches scans one work unit, filtering every batch before it is
// yielded: HWC inside the decoder, text after parsing.
func (c *Cluster) scanUnitBatches(u WorkUnit, spec ScanSpec, filter *format.Filter, pool *batch.Pool, yield func(*batch.Batch) error) (format.ScanStats, error) {
	atNode := spec.Worker // worker i on DataNode i: local replicas short-circuit
	src := c.Source(u.Path, atNode)
	switch {
	case u.Meta != nil:
		return format.ScanHWCFiltered(src, u.Meta, u.Groups, spec.Proj, spec.Pruner, u.ChargeFooter, filter, pool, yield)
	default:
		return format.ScanTextBatches(src, spec.Plan.Table.Schema, u.Start, u.End, spec.Proj, pool, func(b *batch.Batch) error {
			if err := filter.Apply(b); err != nil {
				pool.Put(b)
				return err
			}
			return yield(b)
		})
	}
}
