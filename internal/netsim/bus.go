// Package netsim provides the message bus connecting DB workers, JEN workers
// and the JEN coordinator. The paper connects all of these with TCP/IP
// sockets (Section 4.1); this package offers two interchangeable transports
// with identical semantics and identical byte accounting:
//
//   - ChanBus: in-process channels — deterministic, zero-syscall, used by
//     benchmarks and most tests.
//   - TCPBus: real sockets over loopback — used by integration tests and
//     examples to demonstrate the wire protocol end to end.
//
// Per-link-class byte counters (intra-DB, intra-HDFS, cross) feed the cost
// model; per-endpoint counters feed the per-worker overlap rules.
package netsim

import (
	"fmt"
	"sync"

	"hybridwh/internal/cluster"
)

// MsgType tags the payload of a message.
type MsgType uint8

// Message types used by the join protocols.
const (
	// MsgBloom carries a marshalled Bloom filter.
	MsgBloom MsgType = iota + 1
	// MsgRows carries an encoded row batch (types.EncodeRows).
	MsgRows
	// MsgEOS signals that the sender will send no more rows on this stream.
	MsgEOS
	// MsgAgg carries encoded partial or final aggregation results.
	MsgAgg
	// MsgControl carries small control payloads (requests, acks, plans).
	MsgControl
	// MsgError aborts a distributed operation with an error message.
	MsgError
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgBloom:
		return "bloom"
	case MsgRows:
		return "rows"
	case MsgEOS:
		return "eos"
	case MsgAgg:
		return "agg"
	case MsgControl:
		return "control"
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Msg is one message. Stream disambiguates concurrent flows of the same type
// between the same endpoints (e.g. which table's rows).
type Msg struct {
	Type    MsgType
	Stream  string
	Payload []byte
}

// wireSize is the accounted size of a message: payload plus a small framing
// overhead, identical for both transports so counters are
// transport-independent.
func (m Msg) wireSize() int64 { return int64(len(m.Payload)) + streamSize(m.Stream) + 8 }

// streamSize is the accounted size of a stream name. A query prefix
// ("q<n>/", one per query) counts as a fixed three bytes — what q1/ to q9/
// take — so the bytes a query moves do not depend on its sequence number.
// Names without the prefix count in full.
func streamSize(s string) int64 {
	i := 1
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if len(s) > 0 && s[0] == 'q' && i > 1 && i < len(s) && s[i] == '/' {
		return int64(len(s)-i-1) + 3
	}
	return int64(len(s))
}

// Envelope is a received message with its sender.
type Envelope struct {
	From string
	Msg
}

// Bus moves messages between named endpoints. Send blocks when the receiver
// is backlogged (backpressure, like a full TCP window). Messages between a
// given (from, to) pair are delivered in order.
type Bus interface {
	// Register creates an endpoint and returns its inbox.
	Register(name string) (<-chan Envelope, error)
	// Send delivers m from one endpoint to another.
	Send(from, to string, m Msg) error
	// Counters returns the bus's byte accounting.
	Counters() *Counters
	// Close releases transport resources. Endpoints must be idle.
	Close() error
}

// Counters accounts bytes and messages by link class and per endpoint.
type Counters struct {
	mu      sync.Mutex
	byClass map[cluster.LinkClass]int64 // guarded by mu
	msgs    map[cluster.LinkClass]int64 // guarded by mu
	sentBy  map[string]int64            // guarded by mu
	recvBy  map[string]int64            // guarded by mu
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters {
	return &Counters{
		byClass: map[cluster.LinkClass]int64{},
		msgs:    map[cluster.LinkClass]int64{},
		sentBy:  map[string]int64{},
		recvBy:  map[string]int64{},
	}
}

func (c *Counters) record(from, to string, n int64) {
	cl := cluster.Classify(from, to)
	c.mu.Lock()
	c.byClass[cl] += n
	c.msgs[cl]++
	c.sentBy[from] += n
	c.recvBy[to] += n
	c.mu.Unlock()
}

// Bytes returns the bytes moved over a link class.
func (c *Counters) Bytes(cl cluster.LinkClass) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byClass[cl]
}

// Messages returns the message count for a link class.
func (c *Counters) Messages(cl cluster.LinkClass) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs[cl]
}

// SentBy returns the bytes sent by an endpoint.
func (c *Counters) SentBy(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sentBy[name]
}

// RecvBy returns the bytes received by an endpoint.
func (c *Counters) RecvBy(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recvBy[name]
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.mu.Lock()
	c.byClass = map[cluster.LinkClass]int64{}
	c.msgs = map[cluster.LinkClass]int64{}
	c.sentBy = map[string]int64{}
	c.recvBy = map[string]int64{}
	c.mu.Unlock()
}

// ChanBus is the in-process transport.
type ChanBus struct {
	mu       sync.RWMutex
	inboxes  map[string]chan Envelope // guarded by mu
	buffer   int
	counters *Counters
	closed   bool // guarded by mu
	faults   faultState
}

// NewChanBus creates a channel bus. buffer is the inbox depth per endpoint
// (the backpressure window); 0 selects a sensible default.
func NewChanBus(buffer int) *ChanBus {
	if buffer <= 0 {
		buffer = 1024
	}
	return &ChanBus{inboxes: map[string]chan Envelope{}, buffer: buffer, counters: NewCounters()}
}

// Register implements Bus.
func (b *ChanBus) Register(name string) (<-chan Envelope, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("netsim: bus closed")
	}
	if _, dup := b.inboxes[name]; dup {
		return nil, fmt.Errorf("netsim: endpoint %q already registered", name)
	}
	ch := make(chan Envelope, b.buffer)
	b.inboxes[name] = ch
	return ch, nil
}

// Send implements Bus.
func (b *ChanBus) Send(from, to string, m Msg) error {
	b.mu.RLock()
	_, okFrom := b.inboxes[from]
	dst, okTo := b.inboxes[to]
	b.mu.RUnlock()
	if !okFrom {
		return fmt.Errorf("netsim: unknown sender %q", from)
	}
	if !okTo {
		return fmt.Errorf("netsim: unknown receiver %q", to)
	}
	if err := b.faults.onSend(from, to); err != nil {
		return err
	}
	b.counters.record(from, to, m.wireSize())
	dst <- Envelope{From: from, Msg: m}
	return nil
}

// KillEndpointAfter implements FaultInjector.
func (b *ChanBus) KillEndpointAfter(endpoint string, sends int64) {
	b.faults.killAfter(endpoint, sends)
}

// Counters implements Bus.
func (b *ChanBus) Counters() *Counters { return b.counters }

// Close implements Bus.
func (b *ChanBus) Close() error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	return nil
}
