package core

import (
	"reflect"
	"testing"

	"hybridwh/internal/cluster"
	"hybridwh/internal/format"
	"hybridwh/internal/netsim"
)

// Tests for intra-worker parallelism (Config.WorkerThreads): the morsel
// scan/filter/shuffle stage and the partition-parallel probe must produce
// the same results and the same deterministic counters as the sequential
// pipeline, at any thread count, on every algorithm.

// threadSplitKeys are the per-thread diagnostic counters whose split across
// slots (and therefore whose .max, and for join.probe.split even presence)
// depends on goroutine scheduling. Everything else in a snapshot is part of
// the deterministic contract.
var threadSplitKeys = []string{
	"jen.morsel.tuples.max",
	"join.probe.split",
	"join.probe.split.max",
}

func dropThreadSplit(snap map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(snap))
	for k, v := range snap {
		out[k] = v
	}
	for _, k := range threadSplitKeys {
		delete(out, k)
	}
	return out
}

// parallelSweep runs every algorithm on a fresh identically-seeded fixture
// with the given thread count and returns per-algorithm result rows, cleaned
// counter snapshots and bus counters.
func parallelSweep(t *testing.T, threads int) (rows map[string][][]string, snaps map[string]map[string]int64, bus map[string]int64) {
	t.Helper()
	f := buildFixture(t, netsim.NewChanBus(256), 3, 5, 2000, 6000, format.HWCName)
	defer f.eng.Close()
	f.eng.cfg.WorkerThreads = threads
	q := exampleQuery(t, f, 300, 400)
	rows = map[string][][]string{}
	snaps = map[string]map[string]int64{}
	for _, alg := range Algorithms() {
		f.eng.Recorder().Reset()
		res, err := f.eng.Run(q, alg)
		if err != nil {
			t.Fatalf("threads=%d %v: %v", threads, alg, err)
		}
		var rendered [][]string
		for _, r := range res.Rows {
			rendered = append(rendered, []string{r.String()})
		}
		rows[alg.String()] = rendered
		snaps[alg.String()] = dropThreadSplit(res.Metrics)
	}
	bus = map[string]int64{}
	for _, cl := range []cluster.LinkClass{cluster.IntraDB, cluster.IntraHDFS, cluster.Cross} {
		bus["bytes."+cl.String()] = f.eng.Bus().Counters().Bytes(cl)
		bus["msgs."+cl.String()] = f.eng.Bus().Counters().Messages(cl)
	}
	return rows, snaps, bus
}

// TestWorkerThreadsDeterministic is the PR's determinism contract: a
// multi-threaded sweep must reproduce the single-threaded sweep's results
// and every counter outside the per-thread split — including bus message and
// byte totals — and a second multi-threaded sweep must reproduce the first
// (scheduling independence).
func TestWorkerThreadsDeterministic(t *testing.T) {
	seqRows, seqSnaps, seqBus := parallelSweep(t, 1)
	parRows, parSnaps, parBus := parallelSweep(t, 4)
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatal("result rows differ between WorkerThreads=1 and WorkerThreads=4")
	}
	for alg, ss := range seqSnaps {
		ps := parSnaps[alg]
		for k, v := range ss {
			if ps[k] != v {
				t.Errorf("%s %s: threads=1 %d, threads=4 %d", alg, k, v, ps[k])
			}
		}
		for k := range ps {
			if _, ok := ss[k]; !ok {
				t.Errorf("%s %s: present only with threads=4", alg, k)
			}
		}
	}
	if !reflect.DeepEqual(seqBus, parBus) {
		t.Fatalf("bus counters differ: threads=1 %v, threads=4 %v", seqBus, parBus)
	}

	againRows, againSnaps, againBus := parallelSweep(t, 4)
	if !reflect.DeepEqual(parRows, againRows) || !reflect.DeepEqual(parSnaps, againSnaps) || !reflect.DeepEqual(parBus, againBus) {
		t.Fatal("two WorkerThreads=4 sweeps disagree: parallel execution is not deterministic")
	}
}
