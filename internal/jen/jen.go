// Package jen implements JEN, the paper's join execution engine on HDFS
// (Section 4): a coordinator that resolves table metadata, assigns HDFS
// blocks to workers with locality awareness, and multi-threaded workers that
// scan, parse, filter and Bloom-filter HDFS data in a pipeline (Figure 7).
//
// The package provides the scan-side machinery; the distributed join
// dataflow (what is shuffled where) is orchestrated by internal/core, which
// runs one worker program per JEN worker on top of these primitives.
package jen

import (
	"fmt"

	"hybridwh/internal/catalog"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/metrics"
)

// Config sizes the engine.
type Config struct {
	// Workers is the JEN worker count; worker i runs on DataNode i.
	Workers int
	// BatchRows is the row-batch size used between pipeline stages and on
	// the wire. Default 512.
	BatchRows int
	// Locality enables locality-aware block assignment (Section 4.2);
	// disabling it is the ablation baseline.
	Locality bool
}

func (c Config) withDefaults() Config {
	if c.BatchRows <= 0 {
		c.BatchRows = 512
	}
	return c
}

// Cluster is the JEN deployment: coordinator state shared by all workers.
type Cluster struct {
	cfg Config
	dfs *hdfs.Cluster
	cat *catalog.Catalog
	rec *metrics.Recorder
}

// New creates a JEN cluster over an HDFS deployment and a catalog.
func New(cfg Config, dfs *hdfs.Cluster, cat *catalog.Catalog, rec *metrics.Recorder) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("jen: need at least one worker")
	}
	if cfg.Workers > dfs.NumDataNodes() {
		return nil, fmt.Errorf("jen: %d workers but only %d DataNodes (one worker per node)", cfg.Workers, dfs.NumDataNodes())
	}
	if rec == nil {
		rec = metrics.New()
	}
	return &Cluster{cfg: cfg, dfs: dfs, cat: cat, rec: rec}, nil
}

// Workers returns the worker count.
func (c *Cluster) Workers() int { return c.cfg.Workers }

// BatchRows returns the configured pipeline batch size.
func (c *Cluster) BatchRows() int { return c.cfg.BatchRows }

// Recorder returns the metrics recorder.
func (c *Cluster) Recorder() *metrics.Recorder { return c.rec }

// HDFS returns the underlying HDFS cluster.
func (c *Cluster) HDFS() *hdfs.Cluster { return c.dfs }

// Catalog returns the table catalog.
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat }

// DesignatedWorker is the worker that merges global Bloom filters and final
// aggregates (chosen by the coordinator; fixed for determinism).
func (c *Cluster) DesignatedWorker() int { return 0 }

// WorkUnit is one piece of scan work for one worker: a byte range of a text
// file, or a set of row groups of an HWC file.
type WorkUnit struct {
	Path string
	// Text files: the [Start, End) input split.
	Start, End int64
	// HWC files: the row groups to scan, against shared footer metadata.
	Meta   *format.HWCMeta
	Groups []int
	// ChargeFooter marks the worker's first unit of an HWC file, which pays
	// the footer read.
	ChargeFooter bool
	// Disk is the local disk the data streams from, or -1 for remote reads.
	Disk int
}

// ScanPlan is the coordinator's assignment of a table scan to workers.
type ScanPlan struct {
	Table catalog.Table
	// Units[w] is worker w's work list, grouped contiguously by disk so the
	// per-disk read threads can split them.
	Units [][]WorkUnit
	// Locality summarizes the block assignment.
	Locality hdfs.AssignStats
}

// PlanScan resolves a table and assigns its blocks to workers — the
// coordinator's role in steps like Figure 5: consult HCatalog for paths and
// format, the NameNode for block locations, then balance with locality.
func (c *Cluster) PlanScan(table string) (*ScanPlan, error) {
	t, err := c.cat.Lookup(table)
	if err != nil {
		return nil, err
	}
	paths := c.dfs.List(t.Path)
	if len(paths) == 0 {
		return nil, fmt.Errorf("jen: table %s has no files under %s", table, t.Path)
	}
	workers := make([]int, c.cfg.Workers)
	for i := range workers {
		workers[i] = i // worker i on DataNode i
	}
	asg, stats, err := c.dfs.AssignBlocks(paths, workers, c.cfg.Locality)
	if err != nil {
		return nil, err
	}
	blockPath := map[hdfs.BlockID]string{}
	for _, p := range paths {
		info, err := c.dfs.Stat(p)
		if err != nil {
			return nil, err
		}
		for _, b := range info.Blocks {
			blockPath[b.ID] = p
		}
	}

	plan := &ScanPlan{Table: t, Units: make([][]WorkUnit, c.cfg.Workers), Locality: stats}
	switch t.Format {
	case format.TextName:
		for w := 0; w < c.cfg.Workers; w++ {
			for _, a := range asg[w] {
				// One unit per block; the text scanner's split protocol
				// makes per-block ranges exact.
				plan.Units[w] = append(plan.Units[w], WorkUnit{
					Path:  blockPath[a.Block.ID],
					Start: a.Block.FileOffset,
					End:   a.Block.FileOffset + int64(a.Block.Len),
					Disk:  a.Disk,
				})
			}
		}
	case format.HWCName:
		// Read each file's footer once (coordinator side), then map block
		// ranges to row groups.
		metas := map[string]*format.HWCMeta{}
		for _, p := range paths {
			src := c.Source(p, -1)
			meta, err := format.ReadHWCMeta(src)
			if err != nil {
				return nil, fmt.Errorf("jen: footer of %s: %w", p, err)
			}
			metas[p] = meta
		}
		for w := 0; w < c.cfg.Workers; w++ {
			// Collect this worker's byte ranges per file.
			ranges := map[string][][2]int64{}
			disks := map[string]int{}
			for _, a := range asg[w] {
				p := blockPath[a.Block.ID]
				ranges[p] = append(ranges[p], [2]int64{a.Block.FileOffset, a.Block.FileOffset + int64(a.Block.Len)})
				if a.Disk >= 0 {
					disks[p] = a.Disk
				}
			}
			for _, p := range paths {
				rs := ranges[p]
				if len(rs) == 0 {
					continue
				}
				groups := format.GroupsInRanges(metas[p], rs)
				if len(groups) == 0 {
					continue
				}
				disk, ok := disks[p]
				if !ok {
					disk = -1
				}
				plan.Units[w] = append(plan.Units[w], WorkUnit{
					Path: p, Meta: metas[p], Groups: groups,
					ChargeFooter: true, Disk: disk,
				})
			}
		}
	default:
		return nil, fmt.Errorf("jen: unknown format %q for table %s", t.Format, table)
	}
	return plan, nil
}

// Source returns a format.Source reading the given file on behalf of a node
// (-1 for off-cluster readers).
func (c *Cluster) Source(path string, atNode int) format.Source {
	return &hdfsSource{dfs: c.dfs, path: path, atNode: atNode}
}

type hdfsSource struct {
	dfs    *hdfs.Cluster
	path   string
	atNode int
}

func (s *hdfsSource) Size() int64 {
	info, err := s.dfs.Stat(s.path)
	if err != nil {
		return 0
	}
	return info.Size
}

func (s *hdfsSource) ReadAt(off int64, n int) ([]byte, error) {
	return s.dfs.ReadAt(s.path, off, n, s.atNode)
}
