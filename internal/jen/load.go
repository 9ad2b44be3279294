package jen

import (
	"context"
	"fmt"

	"hybridwh/internal/catalog"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/par"
	"hybridwh/internal/types"
)

// rowWriter is the format-writer interface both file formats satisfy.
type rowWriter interface {
	Write(types.Row) error
	Close() error
}

// The load pipeline's sizes: rows per chunk handed from the generator to
// the writers, and the chunks that circulate between the two stages. Four
// let the generator run up to three chunks ahead while the writer stage
// flushes a row group, and bound what the pipeline holds to 4096 rows.
const (
	loadChunkRows = 1024
	loadChunks    = 4
)

// rowChunk is a run of generated rows, their values copied back to back:
// row i is vals[ends[i-1]:ends[i]]. Copying frees the generator to reuse
// its rows, and the chunks are recycled, so the hand-off allocates nothing
// per row.
type rowChunk struct {
	vals []types.Value
	ends []int
}

// CreateHDFSTable streams generated rows into HDFS as nfiles files of the
// given format under dir, and registers the table in the catalog with row
// and byte statistics. Rows are distributed round-robin across files, the
// usual layout for a table written by a parallel job.
//
// The generator and the writers run as the two stages of pipeRows. The one
// writer stage calls the file writers row by row in generation order, so
// the files are cut into blocks in exactly the order a serial load cuts
// them: block IDs and replica placement are drawn from the cluster's seeded
// RNG in cut order, and a writer goroutine per file would reorder them.
func CreateHDFSTable(dfs *hdfs.Cluster, cat *catalog.Catalog, name, dir, formatName string, schema types.Schema, nfiles int, gen func(emit func(types.Row) error) error) error {
	if nfiles <= 0 {
		nfiles = 1
	}
	files := make([]*hdfs.FileWriter, nfiles)
	writers := make([]rowWriter, nfiles)
	for i := range files {
		path := fmt.Sprintf("%s/part-%05d.%s", dir, i, formatName)
		fw, err := dfs.Create(path)
		if err != nil {
			return err
		}
		files[i] = fw
		switch formatName {
		case format.TextName:
			writers[i] = format.NewTextWriter(fw, schema)
		case format.HWCName:
			hw, err := format.NewHWCWriter(fw, schema, format.HWCOptions{})
			if err != nil {
				return err
			}
			writers[i] = hw
		default:
			return fmt.Errorf("jen: unknown format %q", formatName)
		}
	}

	next := 0
	rows, err := pipeRows(gen, func(r types.Row) error {
		w := writers[next]
		next = (next + 1) % nfiles
		return w.Write(r)
	})
	if err != nil {
		return err
	}

	var bytes int64
	for i := range writers {
		if err := writers[i].Close(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	for _, p := range dfs.List(dir + "/") {
		info, err := dfs.Stat(p)
		if err != nil {
			return err
		}
		bytes += info.Size
	}

	return cat.Register(catalog.Table{
		Name: name, Path: dir + "/", Format: formatName, Schema: schema,
		Rows: rows, Bytes: bytes,
	})
}

// pipeRows runs gen and write as a two-stage pipeline: gen fills row chunks
// on one goroutine while write consumes the previous chunks, row by row in
// generation order, on another. It returns the number of rows generated.
// The first error of either stage cancels the other and is returned.
func pipeRows(gen func(emit func(types.Row) error) error, write func(types.Row) error) (int64, error) {
	// Both channels hold every chunk, so no send on them blocks.
	full := make(chan *rowChunk, loadChunks)
	free := make(chan *rowChunk, loadChunks)
	for i := 0; i < loadChunks; i++ {
		free <- &rowChunk{}
	}
	g, ctx := par.WithContext(context.Background())
	var rows int64
	g.Go(func() error {
		defer close(full)
		var cur *rowChunk
		err := gen(func(r types.Row) error {
			if cur == nil {
				select {
				case cur = <-free:
				case <-ctx.Done():
					return context.Cause(ctx)
				}
			}
			cur.vals = append(cur.vals, r...)
			cur.ends = append(cur.ends, len(cur.vals))
			rows++
			if len(cur.ends) == loadChunkRows {
				full <- cur
				cur = nil
			}
			return nil
		})
		if err == nil && cur != nil {
			full <- cur
		}
		return err
	})
	g.Go(func() error {
		for {
			var c *rowChunk
			select {
			case c = <-full:
			case <-ctx.Done():
				return context.Cause(ctx)
			}
			if c == nil {
				return nil // the generator finished
			}
			start := 0
			for _, end := range c.ends {
				if err := write(c.vals[start:end]); err != nil {
					return err
				}
				start = end
			}
			c.vals, c.ends = c.vals[:0], c.ends[:0]
			free <- c
		}
	})
	err := g.Wait()
	return rows, err
}
