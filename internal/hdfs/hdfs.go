// Package hdfs simulates the HDFS deployment the paper runs on: a NameNode
// holding file→block metadata and a set of DataNodes storing replicated
// blocks, with the properties the join algorithms actually depend on —
// block-granular locality, balanced locality-aware block assignment to
// workers (Section 4.2), per-disk read parallelism, short-circuit local
// reads, and scan-based access with no record-level indexing.
//
// Files are byte streams split into fixed-size blocks at write time. Readers
// address files by (offset, length); the client resolves blocks and picks a
// replica, preferring one local to the reading node (a short-circuit read).
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNoLiveReplica classifies reads of a block whose every replica is on a
// down (or mid-scan-failed) DataNode. Scans surface it wrapped, so callers
// can distinguish a cluster-health failure from a decode or protocol error
// with errors.Is.
var ErrNoLiveReplica = errors.New("hdfs: no live replica")

// Config sizes the simulated cluster. The defaults mirror the paper's
// cluster at 1/1000 data scale: 30 DataNodes, 4 data disks each,
// replication 2.
type Config struct {
	DataNodes    int
	DisksPerNode int
	BlockSize    int
	Replication  int
	Seed         int64
	// StorageDir, when set, stores block replicas as files under
	// StorageDir/node<N>/ instead of in memory — exercising real disk I/O
	// on the scan path.
	StorageDir string
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.DataNodes <= 0 {
		c.DataNodes = 30
	}
	if c.DisksPerNode <= 0 {
		c.DisksPerNode = 4
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 20 // 4 MiB, a 1/32-scale stand-in for 128 MiB
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > c.DataNodes {
		c.Replication = c.DataNodes
	}
	return c
}

// BlockID identifies a block cluster-wide.
type BlockID int64

// Replica locates one copy of a block.
type Replica struct {
	Node int // DataNode index
	Disk int // disk index within the node
}

// BlockInfo is the NameNode's metadata for one block of a file.
type BlockInfo struct {
	ID         BlockID
	FileOffset int64
	Len        int
	Replicas   []Replica
}

// FileInfo describes a stored file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks []BlockInfo
}

// dataNode stores block replicas, either in memory or as files under dir.
type dataNode struct {
	mu        sync.RWMutex
	blocks    map[BlockID][]byte // guarded by mu
	dir       string             // "" = in-memory
	down      bool               // guarded by mu
	failAfter int64              // >0: block reads to serve before dying mid-scan; guarded by mu
}

func (n *dataNode) store(id BlockID, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dir == "" {
		n.blocks[id] = data
		return nil
	}
	if err := os.MkdirAll(n.dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(n.blockPath(id), data, 0o644)
}

func (n *dataNode) load(id BlockID) ([]byte, bool) {
	// Write lock: serving a read may trip the injected failure countdown.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, false
	}
	if n.failAfter > 0 {
		n.failAfter--
		if n.failAfter == 0 {
			// This node dies *during* the scan: the current read is the
			// last one it serves.
			n.down = true
		}
	}
	if n.dir == "" {
		data, ok := n.blocks[id]
		return data, ok
	}
	data, err := os.ReadFile(n.blockPath(id))
	if err != nil {
		return nil, false
	}
	return data, true
}

func (n *dataNode) drop(id BlockID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dir == "" {
		delete(n.blocks, id)
		return
	}
	os.Remove(n.blockPath(id))
}

func (n *dataNode) blockPath(id BlockID) string {
	return filepath.Join(n.dir, fmt.Sprintf("blk_%d", id))
}

// Cluster is the simulated HDFS: NameNode state plus DataNodes.
type Cluster struct {
	cfg Config

	mu            sync.RWMutex
	files         map[string]*FileInfo // guarded by mu
	nextID        BlockID              // guarded by mu
	rng           *rand.Rand           // guarded by mu
	nextPlacement int                  // round-robin cursor for primary replica placement; guarded by mu

	nodes []*dataNode

	// Read counters (atomic; bytes).
	localBytes  atomic.Int64
	remoteBytes atomic.Int64
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:   cfg,
		files: map[string]*FileInfo{},
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		nodes: make([]*dataNode, cfg.DataNodes),
	}
	for i := range c.nodes {
		dir := ""
		if cfg.StorageDir != "" {
			dir = filepath.Join(cfg.StorageDir, fmt.Sprintf("node%02d", i))
		}
		c.nodes[i] = &dataNode{blocks: map[BlockID][]byte{}, dir: dir}
	}
	return c
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumDataNodes returns the number of DataNodes.
func (c *Cluster) NumDataNodes() int { return c.cfg.DataNodes }

// LocalReadBytes returns the total bytes served by short-circuit local reads.
func (c *Cluster) LocalReadBytes() int64 { return c.localBytes.Load() }

// RemoteReadBytes returns the total bytes served from non-local replicas.
func (c *Cluster) RemoteReadBytes() int64 { return c.remoteBytes.Load() }

// ResetReadCounters zeroes the read counters (between experiments).
func (c *Cluster) ResetReadCounters() {
	c.localBytes.Store(0)
	c.remoteBytes.Store(0)
}

// SetNodeDown marks a DataNode up or down. Blocks whose only live replicas
// are on down nodes become unreadable; Assign routes around down nodes.
func (c *Cluster) SetNodeDown(node int, down bool) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("hdfs: no such node %d", node)
	}
	n := c.nodes[node]
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
	return nil
}

func (c *Cluster) nodeUp(i int) bool {
	n := c.nodes[i]
	n.mu.RLock()
	defer n.mu.RUnlock()
	return !n.down
}

// FailNodeAfterReads arms a mid-scan failure: the node serves `reads` more
// block reads and then goes down, exactly as if the DataNode process died
// while a scan was streaming its blocks. In-flight readers fail over to a
// live replica (ReadBlock retries) or report ErrNoLiveReplica when none is
// left. reads <= 0 takes the node down immediately (same as SetNodeDown).
func (c *Cluster) FailNodeAfterReads(node int, reads int64) error {
	if node < 0 || node >= len(c.nodes) {
		return fmt.Errorf("hdfs: no such node %d", node)
	}
	n := c.nodes[node]
	n.mu.Lock()
	defer n.mu.Unlock()
	if reads <= 0 {
		n.down = true
		return nil
	}
	n.failAfter = reads
	return nil
}

// FileWriter streams a file into the cluster, cutting blocks as it goes.
type FileWriter struct {
	c      *Cluster
	path   string
	buf    []byte
	info   *FileInfo
	closed bool
}

// Create starts writing a new file. It fails if the path already exists.
func (c *Cluster) Create(path string) (*FileWriter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.files[path]; exists {
		return nil, fmt.Errorf("hdfs: file exists: %s", path)
	}
	info := &FileInfo{Path: path}
	c.files[path] = info
	return &FileWriter{c: c, path: path, info: info}, nil
}

// Write appends bytes to the file.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("hdfs: write after close: %s", w.path)
	}
	w.buf = append(w.buf, p...)
	for len(w.buf) >= w.c.cfg.BlockSize {
		w.cutBlock(w.buf[:w.c.cfg.BlockSize])
		w.buf = w.buf[w.c.cfg.BlockSize:]
	}
	return len(p), nil
}

// Close flushes the final partial block and seals the file.
func (w *FileWriter) Close() error {
	if w.closed {
		return nil
	}
	if len(w.buf) > 0 {
		w.cutBlock(w.buf)
		w.buf = nil
	}
	w.closed = true
	return nil
}

// cutBlock places one block: primary replica round-robin across nodes (a
// distributed writer), remaining replicas on distinct random nodes.
func (w *FileWriter) cutBlock(data []byte) {
	c := w.c
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	primary := c.nextPlacement % c.cfg.DataNodes
	c.nextPlacement++
	nodes := []int{primary}
	for len(nodes) < c.cfg.Replication {
		n := c.rng.Intn(c.cfg.DataNodes)
		dup := false
		for _, m := range nodes {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			nodes = append(nodes, n)
		}
	}
	c.mu.Unlock()

	replicas := make([]Replica, len(nodes))
	cp := make([]byte, len(data))
	copy(cp, data)
	for i, n := range nodes {
		disk := int(id) % c.cfg.DisksPerNode
		replicas[i] = Replica{Node: n, Disk: disk}
		if err := c.nodes[n].store(id, cp); err != nil {
			// Placement failures surface on read as a missing replica; a
			// real DataNode would re-replicate. Record nothing here.
			continue
		}
	}

	c.mu.Lock()
	w.info.Blocks = append(w.info.Blocks, BlockInfo{
		ID: id, FileOffset: w.info.Size, Len: len(data), Replicas: replicas,
	})
	w.info.Size += int64(len(data))
	c.mu.Unlock()
}

// WriteFile stores a whole byte slice as a file.
func (c *Cluster) WriteFile(path string, data []byte) error {
	w, err := c.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Stat returns the metadata for a file.
func (c *Cluster) Stat(path string) (FileInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	info, ok := c.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("hdfs: no such file: %s", path)
	}
	out := *info
	out.Blocks = append([]BlockInfo(nil), info.Blocks...)
	return out, nil
}

// List returns the paths with the given prefix, sorted.
func (c *Cluster) List(prefix string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for p := range c.files {
		if len(p) >= len(prefix) && p[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and its blocks.
func (c *Cluster) Delete(path string) error {
	c.mu.Lock()
	info, ok := c.files[path]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("hdfs: no such file: %s", path)
	}
	delete(c.files, path)
	c.mu.Unlock()
	for _, b := range info.Blocks {
		for _, r := range b.Replicas {
			c.nodes[r.Node].drop(b.ID)
		}
	}
	return nil
}

// ReadAt reads length bytes from the file starting at off, on behalf of a
// reader running on the given node (-1 for an off-cluster reader such as a
// DB worker). Replica choice prefers a local copy; counters record local vs
// remote bytes.
func (c *Cluster) ReadAt(path string, off int64, length int, atNode int) ([]byte, error) {
	// A file's blocks are appended, never changed, so the slice header taken
	// under the lock stays valid after it without a copy.
	c.mu.RLock()
	info, ok := c.files[path]
	var size int64
	var blocks []BlockInfo
	if ok {
		size, blocks = info.Size, info.Blocks
	}
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file: %s", path)
	}
	if off < 0 || off > size {
		return nil, fmt.Errorf("hdfs: read offset %d outside file %s (size %d)", off, path, size)
	}
	if off+int64(length) > size {
		length = int(size - off)
	}
	var out []byte
	for first := true; length > 0; first = false {
		b := blockAt(blocks, off)
		if b == nil {
			return nil, fmt.Errorf("hdfs: no block at offset %d in %s", off, path)
		}
		inner := int(off - b.FileOffset)
		n := b.Len - inner
		if n > length {
			n = length
		}
		data, local, err := c.readBlock(*b, atNode)
		if err != nil {
			return nil, err
		}
		if local {
			c.localBytes.Add(int64(n))
		} else {
			c.remoteBytes.Add(int64(n))
		}
		if first && n == length {
			// The range lies inside one block: hand out the stored bytes,
			// capped so an append by the caller copies instead of writing
			// into the block.
			return data[inner : inner+n : inner+n], nil
		}
		if first {
			out = make([]byte, 0, length)
		}
		out = append(out, data[inner:inner+n]...)
		off += int64(n)
		length -= n
	}
	return out, nil
}

// ReadBlock fetches a whole block by metadata on behalf of a node.
func (c *Cluster) ReadBlock(b BlockInfo, atNode int) ([]byte, error) {
	data, local, err := c.readBlock(b, atNode)
	if err != nil {
		return nil, err
	}
	if local {
		c.localBytes.Add(int64(len(data)))
	} else {
		c.remoteBytes.Add(int64(len(data)))
	}
	return data, nil
}

func (c *Cluster) readBlock(b BlockInfo, atNode int) (data []byte, local bool, err error) {
	// Prefer the local replica (short-circuit read), else any live one. A
	// replica whose node went down between selection and load — the mid-scan
	// failure case — fails over to the next live replica, like an HDFS
	// client retrying the block's other locations.
	order := make([]Replica, 0, len(b.Replicas))
	for _, r := range b.Replicas {
		if r.Node == atNode {
			order = append(order, r)
		}
	}
	for _, r := range b.Replicas {
		if r.Node != atNode {
			order = append(order, r)
		}
	}
	for _, r := range order {
		if !c.nodeUp(r.Node) {
			continue
		}
		if data, ok := c.nodes[r.Node].load(b.ID); ok {
			return data, r.Node == atNode, nil
		}
	}
	return nil, false, fmt.Errorf("hdfs: block %d: %w", b.ID, ErrNoLiveReplica)
}

func blockAt(blocks []BlockInfo, off int64) *BlockInfo {
	lo, hi := 0, len(blocks)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		b := &blocks[mid]
		if off < b.FileOffset {
			hi = mid - 1
		} else if off >= b.FileOffset+int64(b.Len) {
			lo = mid + 1
		} else {
			return b
		}
	}
	return nil
}
