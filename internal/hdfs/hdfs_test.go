package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func smallCluster(t *testing.T, nodes, blockSize int) *Cluster {
	t.Helper()
	return New(Config{DataNodes: nodes, DisksPerNode: 2, BlockSize: blockSize, Replication: 2, Seed: 42})
}

func TestWriteStatRead(t *testing.T) {
	c := smallCluster(t, 4, 100)
	data := make([]byte, 950)
	rand.New(rand.NewSource(1)).Read(data)
	if err := c.WriteFile("/t/L.txt", data); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	info, err := c.Stat("/t/L.txt")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if info.Size != 950 {
		t.Errorf("Size = %d", info.Size)
	}
	if len(info.Blocks) != 10 {
		t.Fatalf("blocks = %d, want 10 (9 full + 1 partial)", len(info.Blocks))
	}
	if info.Blocks[9].Len != 50 {
		t.Errorf("last block len = %d", info.Blocks[9].Len)
	}
	var off int64
	for i, b := range info.Blocks {
		if b.FileOffset != off {
			t.Errorf("block %d offset = %d, want %d", i, b.FileOffset, off)
		}
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas", i, len(b.Replicas))
		}
		if b.Replicas[0].Node == b.Replicas[1].Node {
			t.Errorf("block %d replicas on same node", i)
		}
		off += int64(b.Len)
	}

	got, err := c.ReadAt("/t/L.txt", 0, 950, -1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("full read mismatch: %v", err)
	}
	// Cross-block range read.
	got, err = c.ReadAt("/t/L.txt", 95, 110, -1)
	if err != nil || !bytes.Equal(got, data[95:205]) {
		t.Fatalf("range read mismatch: %v", err)
	}
	// Read past EOF truncates.
	got, err = c.ReadAt("/t/L.txt", 900, 500, -1)
	if err != nil || !bytes.Equal(got, data[900:]) {
		t.Fatalf("EOF-truncated read mismatch: %v", err)
	}
}

// TestReadAtSingleBlockView checks the two read paths: a range inside one
// block comes back as a view of the block capped at its length, so an
// append copies instead of overwriting the block, and a range across blocks
// is assembled into a fresh buffer.
func TestReadAtSingleBlockView(t *testing.T) {
	c := smallCluster(t, 3, 100)
	data := make([]byte, 350)
	rand.New(rand.NewSource(2)).Read(data)
	if err := c.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ off, n int }{{110, 80}, {100, 100}, {300, 50}, {90, 20}, {50, 300}, {0, 350}} {
		got, err := c.ReadAt("/f", int64(r.off), r.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[r.off:r.off+r.n]) {
			t.Fatalf("ReadAt(%d, %d): wrong bytes", r.off, r.n)
		}
		if cap(got) != len(got) {
			t.Errorf("ReadAt(%d, %d): capacity %d beyond length %d", r.off, r.n, cap(got), len(got))
		}
		_ = append(got, 0xff, 0xff, 0xff)
		again, err := c.ReadAt("/f", 0, 350, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("an append to ReadAt(%d, %d) changed the stored file", r.off, r.n)
		}
	}
}

func TestReadErrors(t *testing.T) {
	c := smallCluster(t, 3, 100)
	if _, err := c.ReadAt("/missing", 0, 10, -1); err == nil {
		t.Error("read of missing file: want error")
	}
	if err := c.WriteFile("/f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt("/f", -1, 10, -1); err == nil {
		t.Error("negative offset: want error")
	}
	if _, err := c.ReadAt("/f", 99, 10, -1); err == nil {
		t.Error("offset past EOF: want error")
	}
	if err := c.WriteFile("/f", []byte("again")); err == nil {
		t.Error("duplicate create: want error")
	}
}

func TestDeleteAndList(t *testing.T) {
	c := smallCluster(t, 3, 100)
	for _, p := range []string{"/t/a", "/t/b", "/u/c"} {
		if err := c.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.List("/t/"); len(got) != 2 || got[0] != "/t/a" || got[1] != "/t/b" {
		t.Errorf("List = %v", got)
	}
	if err := c.Delete("/t/a"); err != nil {
		t.Fatal(err)
	}
	if got := c.List("/t/"); len(got) != 1 {
		t.Errorf("List after delete = %v", got)
	}
	if err := c.Delete("/t/a"); err == nil {
		t.Error("double delete: want error")
	}
	// Deleted blocks are gone from the DataNodes.
	total := 0
	for _, n := range c.nodes {
		n.mu.RLock()
		total += len(n.blocks)
		n.mu.RUnlock()
	}
	// 2 files × 1 block × 2 replicas
	if total != 4 {
		t.Errorf("%d replica blocks remain, want 4", total)
	}
}

func TestShortCircuitCounters(t *testing.T) {
	c := smallCluster(t, 4, 100)
	if err := c.WriteFile("/f", make([]byte, 400)); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	b := info.Blocks[0]
	// Read at the node holding the primary replica: local.
	if _, err := c.ReadBlock(b, b.Replicas[0].Node); err != nil {
		t.Fatal(err)
	}
	if c.LocalReadBytes() != 100 || c.RemoteReadBytes() != 0 {
		t.Errorf("local=%d remote=%d after local read", c.LocalReadBytes(), c.RemoteReadBytes())
	}
	// Read from an off-cluster client: remote.
	if _, err := c.ReadBlock(b, -1); err != nil {
		t.Fatal(err)
	}
	if c.RemoteReadBytes() != 100 {
		t.Errorf("remote=%d after remote read", c.RemoteReadBytes())
	}
	c.ResetReadCounters()
	if c.LocalReadBytes() != 0 || c.RemoteReadBytes() != 0 {
		t.Error("counters not reset")
	}
}

func TestNodeFailureReadsFailOver(t *testing.T) {
	c := smallCluster(t, 4, 100)
	if err := c.WriteFile("/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	b := info.Blocks[0]
	// Take down the first replica's node: read still succeeds via the second.
	if err := c.SetNodeDown(b.Replicas[0].Node, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlock(b, b.Replicas[0].Node); err != nil {
		t.Fatalf("failover read: %v", err)
	}
	// Take down both: read fails.
	if err := c.SetNodeDown(b.Replicas[1].Node, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlock(b, -1); err == nil {
		t.Error("read with all replicas down: want error")
	}
	if err := c.SetNodeDown(99, true); err == nil {
		t.Error("SetNodeDown(99): want error")
	}
}

func TestFailNodeAfterReadsMidScan(t *testing.T) {
	c := smallCluster(t, 4, 100) // replication 2
	if err := c.WriteFile("/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	b := info.Blocks[0]
	primary := b.Replicas[0].Node
	if err := c.FailNodeAfterReads(primary, 1); err != nil {
		t.Fatal(err)
	}
	// The armed node serves exactly one more read (the local short-circuit
	// read), then dies mid-scan.
	if _, err := c.ReadBlock(b, primary); err != nil {
		t.Fatalf("read before the countdown expires: %v", err)
	}
	if c.LocalReadBytes() != 100 {
		t.Errorf("local=%d; the last served read was local", c.LocalReadBytes())
	}
	// The next read fails over to the surviving replica, like an HDFS client
	// retrying the block's other locations.
	if _, err := c.ReadBlock(b, primary); err != nil {
		t.Fatalf("failover read after mid-scan death: %v", err)
	}
	if c.RemoteReadBytes() != 100 {
		t.Errorf("remote=%d; failover read comes from the other node", c.RemoteReadBytes())
	}
	// With the second replica's node also gone the block is unreadable, and
	// the error is classified.
	if err := c.SetNodeDown(b.Replicas[1].Node, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlock(b, primary); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("read with no live replica: err = %v, want ErrNoLiveReplica", err)
	}
	if err := c.FailNodeAfterReads(99, 1); err == nil {
		t.Error("FailNodeAfterReads(99): want error")
	}
}

func TestFailNodeAfterReadsNoReplication(t *testing.T) {
	c := New(Config{DataNodes: 3, DisksPerNode: 2, BlockSize: 100, Replication: 1, Seed: 8})
	if err := c.WriteFile("/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Stat("/f")
	b := info.Blocks[0]
	if err := c.FailNodeAfterReads(b.Replicas[0].Node, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlock(b, -1); err != nil {
		t.Fatalf("final served read: %v", err)
	}
	if _, err := c.ReadBlock(b, -1); !errors.Is(err, ErrNoLiveReplica) {
		t.Fatalf("unreplicated block after node death: err = %v, want ErrNoLiveReplica", err)
	}
	// reads <= 0 is an immediate SetNodeDown.
	other := (b.Replicas[0].Node + 1) % 3
	if err := c.FailNodeAfterReads(other, 0); err != nil {
		t.Fatal(err)
	}
	if c.nodeUp(other) {
		t.Error("FailNodeAfterReads(_, 0) did not take the node down")
	}
}

func writeManyBlocks(t *testing.T, c *Cluster, path string, blocks, blockSize int) {
	t.Helper()
	if err := c.WriteFile(path, make([]byte, blocks*blockSize)); err != nil {
		t.Fatal(err)
	}
}

func TestAssignBlocksLocalityAndBalance(t *testing.T) {
	const nodes = 10
	c := New(Config{DataNodes: nodes, DisksPerNode: 4, BlockSize: 1000, Replication: 2, Seed: 7})
	writeManyBlocks(t, c, "/L", 200, 1000)
	workers := make([]int, nodes) // worker i on node i
	for i := range workers {
		workers[i] = i
	}
	asg, stats, err := c.AssignBlocks([]string{"/L"}, workers, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalBlocks != 200 {
		t.Errorf("TotalBlocks = %d", stats.TotalBlocks)
	}
	if f := stats.LocalityFraction(); f < 0.95 {
		t.Errorf("locality fraction %.2f, want ≥0.95", f)
	}
	if stats.MaxWorkerBytes-stats.MinWorkerBytes > 3000 {
		t.Errorf("imbalance: max=%d min=%d", stats.MaxWorkerBytes, stats.MinWorkerBytes)
	}
	// Every block assigned exactly once.
	seen := map[BlockID]bool{}
	for _, as := range asg {
		for _, a := range as {
			if seen[a.Block.ID] {
				t.Fatalf("block %d assigned twice", a.Block.ID)
			}
			seen[a.Block.ID] = true
			if a.Local && a.Disk < 0 {
				t.Errorf("local assignment without disk")
			}
		}
	}
	if len(seen) != 200 {
		t.Errorf("assigned %d blocks", len(seen))
	}
}

func TestAssignBlocksRandomBaselineLowerLocality(t *testing.T) {
	const nodes = 12
	c := New(Config{DataNodes: nodes, DisksPerNode: 4, BlockSize: 1000, Replication: 2, Seed: 3})
	writeManyBlocks(t, c, "/L", 240, 1000)
	workers := make([]int, nodes)
	for i := range workers {
		workers[i] = i
	}
	_, locStats, err := c.AssignBlocks([]string{"/L"}, workers, true)
	if err != nil {
		t.Fatal(err)
	}
	_, rrStats, err := c.AssignBlocks([]string{"/L"}, workers, false)
	if err != nil {
		t.Fatal(err)
	}
	if rrStats.LocalityFraction() >= locStats.LocalityFraction() {
		t.Errorf("round-robin locality %.2f should be below locality-aware %.2f",
			rrStats.LocalityFraction(), locStats.LocalityFraction())
	}
}

func TestAssignBlocksAvoidsDownNodes(t *testing.T) {
	const nodes = 6
	c := New(Config{DataNodes: nodes, DisksPerNode: 2, BlockSize: 1000, Replication: 2, Seed: 5})
	writeManyBlocks(t, c, "/L", 60, 1000)
	workers := make([]int, nodes)
	for i := range workers {
		workers[i] = i
	}
	if err := c.SetNodeDown(2, true); err != nil {
		t.Fatal(err)
	}
	asg, _, err := c.AssignBlocks([]string{"/L"}, workers, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range asg[2] {
		if a.Local {
			t.Errorf("block %d assigned locally to a down node", a.Block.ID)
		}
	}
}

func TestAssignBlocksErrors(t *testing.T) {
	c := smallCluster(t, 3, 100)
	if _, _, err := c.AssignBlocks([]string{"/missing"}, []int{0}, true); err == nil {
		t.Error("missing file: want error")
	}
	if err := c.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AssignBlocks([]string{"/f"}, nil, true); err == nil {
		t.Error("no workers: want error")
	}
}

func TestConcurrentReaders(t *testing.T) {
	c := smallCluster(t, 4, 1000)
	data := make([]byte, 50000)
	rand.New(rand.NewSource(9)).Read(data)
	if err := c.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				off := (g*997 + i*131) % 40000
				got, err := c.ReadAt("/f", int64(off), 1000, g%4)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(got, data[off:off+1000]) {
					errc <- fmt.Errorf("mismatch at %d", off)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskBackedStorage(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{DataNodes: 3, DisksPerNode: 2, BlockSize: 100, Replication: 2, Seed: 1, StorageDir: dir})
	data := make([]byte, 450)
	rand.New(rand.NewSource(4)).Read(data)
	if err := c.WriteFile("/d/f", data); err != nil {
		t.Fatal(err)
	}
	// Blocks landed on disk, not in memory.
	onDisk := 0
	for n := 0; n < 3; n++ {
		entries, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("node%02d", n)))
		if err == nil {
			onDisk += len(entries)
		}
	}
	// 5 blocks × 2 replicas.
	if onDisk != 10 {
		t.Errorf("replica files on disk = %d, want 10", onDisk)
	}
	got, err := c.ReadAt("/d/f", 0, len(data), 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("disk-backed read mismatch: %v", err)
	}
	// Delete removes the files.
	if err := c.Delete("/d/f"); err != nil {
		t.Fatal(err)
	}
	onDisk = 0
	for n := 0; n < 3; n++ {
		entries, err := os.ReadDir(filepath.Join(dir, fmt.Sprintf("node%02d", n)))
		if err == nil {
			onDisk += len(entries)
		}
	}
	if onDisk != 0 {
		t.Errorf("%d replica files remain after delete", onDisk)
	}
}
