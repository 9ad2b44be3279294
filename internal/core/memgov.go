package core

import (
	"hybridwh/internal/batch"
	"hybridwh/internal/mem"
	"hybridwh/internal/metrics"
	"hybridwh/internal/relop"
)

// This file is the execution layer's memory-governance glue: the worker
// programs charge their materialized state — buffered probe batches and
// intermediates, hash aggregation groups, hash-table builds — against the
// query's mem.Budget
// when one is registered (RunOpts.Budget), and record the dynamic hybrid
// hash join's spill activity. With no budget every helper is a no-op, so
// ungoverned runs keep byte-identical counter snapshots.

// chargeBatches Force-charges buffered batches against bud and returns the
// bytes charged, for the caller to Release once the batches are consumed. A
// batch is charged a boxed value header per physical cell plus a batch
// header, the batch pool's accounting geometry, so charges and releases line
// up.
// The charge is a Force, not a Reserve: the batches already exist (they
// were buffered by a background receiver), so refusing them cannot shrink
// memory — but the pressure callbacks still fire, shedding join partitions
// to compensate.
func chargeBatches(bud *mem.Budget, bs []*batch.Batch) int64 {
	if bud == nil {
		return 0
	}
	var n int64
	for _, b := range bs {
		n += int64(b.NumCols())*int64(b.Size())*16 + 64
	}
	bud.Force(n)
	return n
}

// recordSpillStats copies a join table's spill counters into the
// per-worker spill vectors. Only non-zero values are recorded so spill-free
// runs keep byte-identical snapshots; under a shared budget the per-worker
// split depends on which worker the pressure lands on — diagnostic, like
// JENMorselTuples.
func (e *Engine) recordSpillStats(s *relop.HashTable, slot int) {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{metrics.SpillBuildRows, s.SpilledBuildRows},
		{metrics.SpillProbeRows, s.SpilledProbeRows},
		{metrics.SpillEvictions, s.Evictions},
		{metrics.SpillRepartitions, s.Repartitions},
		{metrics.SpillNLFallbacks, s.NLFallbacks},
	} {
		if c.v != 0 {
			e.rec.AddAt(c.name, slot, c.v)
		}
	}
}
