package jen

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridwh/internal/catalog"
	"hybridwh/internal/datagen"
	"hybridwh/internal/format"
	"hybridwh/internal/hdfs"
	"hybridwh/internal/types"
)

// loadHash loads one table through CreateHDFSTable onto a fresh small-block
// cluster and hashes everything the load leaves behind: every file's bytes,
// every block's ID, offset, length and replicas (so block IDs and placement,
// drawn from the cluster's seeded RNG in cut order, are covered), and the
// catalog entry's row and byte counts.
func loadHash(t *testing.T, formatName string, schema types.Schema, nfiles int, gen func(func(types.Row) error) error) string {
	t.Helper()
	dfs := hdfs.New(hdfs.Config{DataNodes: 7, DisksPerNode: 3, BlockSize: 32 << 10, Replication: 3, Seed: 5})
	cat := catalog.New()
	if err := CreateHDFSTable(dfs, cat, "X", "/w/X", formatName, schema, nfiles, gen); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range dfs.List("/") {
		info, err := dfs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := dfs.ReadAt(p, 0, int(info.Size), 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", p, info.Size)
		h.Write(data)
		for _, b := range info.Blocks {
			fmt.Fprintf(h, "block %d %d %d %v\n", b.ID, b.FileOffset, b.Len, b.Replicas)
		}
	}
	tbl, err := cat.Lookup("X")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "catalog %d %d\n", tbl.Rows, tbl.Bytes)
	return hex.EncodeToString(h.Sum(nil))
}

// hashRows hashes the wire encoding of every row a generator emits.
func hashRows(t *testing.T, gen func(func(types.Row) error) error) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	if err := gen(func(r types.Row) error {
		buf = types.AppendRow(buf[:0], r)
		h.Write(buf)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadByteIdentical pins the bytes a table load writes, at 1 and 8 Ps.
// The hashes were captured from the serial loader and the fmt-based
// generators that the pipelined load and the fmt-free generators replaced:
// the load must write exactly the same files, cut the same blocks with the
// same IDs and replicas, and register the same statistics, and the
// generators must emit exactly the same rows.
func TestLoadByteIdentical(t *testing.T) {
	two := func(zipf float64) datagen.Data {
		return datagen.Data{TRows: 3000, LRows: 20000, Keys: 700, Seed: 7, Groups: 150, ZipfS: zipf}
	}
	star := datagen.Star{FactRows: 12000, Seed: 3, Groups: 9, Dims: []datagen.DimSpec{
		{Name: "customer", Rows: 900, Sub: &datagen.DimSpec{Name: "nation", Rows: 25}},
		{Name: "product", Rows: 300},
		{Name: "store", Rows: 40},
	}}
	want := map[string]string{
		"L/zipf=0/hwc":      "22462b08db771254f152a6cb39325c9c67d67fa3b449a4596be8301f7b678609",
		"L/zipf=0/text":     "96102ed469a0c64a6eda08bade7b04c6a5f1d0d0bce92288057912896ba8d545",
		"L/zipf=1.1/hwc":    "d68f07cbab20f2521b930acdba34355bbbc1c55cc77ba97d5876ea9bc6dfe32e",
		"L/zipf=1.1/text":   "59ef5da240b8e6a6e51b35272f599f4c38f36914227c2b9c991a075c4e6c7255",
		"T":                 "5ff46b25698638f967b1965400e7adef12cf574d3da6b215460d1ef770efc17e",
		"star/fact/hwc":     "ad503582eebb2d0172c0641eeafbb27465a50d17bd89bf556d370a73483bc713",
		"star/dim/customer": "0702924f87ec352063a4e1d7121ed7780a4e59e4d0c84970bb829f37160518b3",
		"star/dim/nation":   "a7e64585bc107898ba8c3c8f1da1eb38d1e478bea2d912190f1dac89c84fdda2",
		"star/dim/product":  "0bb0cd065f21aedcc7081ba163141457100669a051e712f444da84377b5b7e56",
		"star/dim/store":    "9687c674428bd6d0526dff4f5597ded81fcecd86a87c9b86638e64b6951d1913",
	}
	hashes := map[string]func(t *testing.T) string{
		"T":             func(t *testing.T) string { return hashRows(t, two(0).GenT) },
		"star/fact/hwc": func(t *testing.T) string { return loadHash(t, format.HWCName, star.FactSchema(), 4, star.GenFact) },
	}
	for _, z := range []float64{0, 1.1} {
		for _, f := range []string{format.HWCName, format.TextName} {
			hashes[fmt.Sprintf("L/zipf=%v/%s", z, f)] = func(t *testing.T) string {
				return loadHash(t, f, datagen.LSchema(), 3, two(z).GenL)
			}
		}
	}
	for _, dim := range star.AllDims() {
		hashes["star/dim/"+dim.Name] = func(t *testing.T) string {
			return hashRows(t, func(emit func(types.Row) error) error { return star.GenDim(dim.Name, emit) })
		}
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for name, w := range want {
				if got := hashes[name](t); got != w {
					t.Errorf("%s: hash %s, want %s", name, got, w)
				}
			}
		})
	}
}

// settledGoroutines waits for the goroutine count to fall back to at most
// want, returning the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestLoadPipelineErrors fails each stage of the load pipeline part-way
// through a load several chunks long: CreateHDFSTable returns that stage's
// error, and neither stage's goroutine outlives the call.
func TestLoadPipelineErrors(t *testing.T) {
	const n = 10 * loadChunkRows
	genErr := errors.New("generator failed")
	cases := []struct {
		name string
		bad  int64 // the row that fails
		want func(error) bool
	}{
		{"generator", n / 2, func(err error) bool { return err == genErr }},
		{"writer", n/2 + 3, func(err error) bool { return err != nil && strings.Contains(err.Error(), "row has 3 cols, schema 4") }},
	}
	for _, c := range cases {
		for _, f := range []string{format.HWCName, format.TextName} {
			t.Run(c.name+"/"+f, func(t *testing.T) {
				before := runtime.NumGoroutine()
				dfs := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 4096, Seed: 1})
				var emitted int64
				gen := func(emit func(types.Row) error) error {
					for i := int64(0); i < n; i++ {
						row := types.Row{types.Int32(int32(i)), types.Int32(1), types.Int32(2), types.String("g")}
						if i == c.bad {
							if c.name == "generator" {
								return genErr
							}
							row = row[:3]
						}
						if err := emit(row); err != nil {
							return err
						}
						emitted++
					}
					return nil
				}
				err := CreateHDFSTable(dfs, catalog.New(), "X", "/x", f, lSchema(), 3, gen)
				if !c.want(err) {
					t.Fatalf("err = %v", err)
				}
				if emitted >= n {
					t.Errorf("the generator ran to the end (%d rows) after the failure", emitted)
				}
				if got := settledGoroutines(before); got > before {
					t.Errorf("%d goroutines after the failed load, %d before", got, before)
				}
			})
		}
	}
}

// blockHash hashes the stored bytes of every block of every file.
func blockHash(t *testing.T, dfs *hdfs.Cluster) string {
	t.Helper()
	h := sha256.New()
	for _, p := range dfs.List("/") {
		info, err := dfs.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range info.Blocks {
			data, err := dfs.ReadBlock(b, -1)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScansLeaveBlocksUntouched scans text and HWC files on blocks small
// enough that lines and column chunks straddle block boundaries, so the
// scans take both zero-copy single-block reads and copied multi-block ones.
// Every scan returns exactly the writer's rows, and every block's bytes are
// the same after the scans as before: no reader writes into a block it was
// handed.
func TestScansLeaveBlocksUntouched(t *testing.T) {
	for _, f := range []string{format.TextName, format.HWCName} {
		t.Run(f, func(t *testing.T) {
			c := makeCluster(t, f, 4, 6000)
			before := blockHash(t, c.dfs)
			plan, err := c.PlanScan("L")
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for w := 0; w < c.Workers(); w++ {
				if err := scanRows(c, ScanSpec{Plan: plan, Worker: w}, func(r types.Row) error {
					got[fmt.Sprint(r)]++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			want := map[string]int{}
			for i := 0; i < 6000; i++ {
				want[fmt.Sprint(types.Row{
					types.Int32(int32(i % 500)), types.Int32(int32(i % 1000)), types.Int32(int32((i * 13) % 1000)),
					types.String(fmt.Sprintf("grp-%05d/u", i%40)),
				})]++
			}
			if !maps.Equal(got, want) {
				t.Errorf("scan returned %d distinct rows, the writer wrote %d", len(got), len(want))
			}
			if after := blockHash(t, c.dfs); after != before {
				t.Errorf("block bytes changed under the scans: %s, then %s", before, after)
			}
		})
	}
}
