package netsim

import (
	"fmt"
	"strings"
	"sync"
)

// Router demultiplexes an endpoint's single inbox into per-(type, stream)
// channels. Worker programs run several concurrent flows at once — the
// database Bloom filter arriving while shuffle rows stream in, for example —
// and each flow subscribes to its own route.
//
// Messages that arrive before their route is registered are buffered, so
// subscription order never races message arrival.
//
// A receiver that unsubscribes (Unroute) while a delivery is blocked on its
// full route channel must not wedge the dispatch loop: each route carries a
// `gone` signal that Unroute closes, and a blocked delivery falls back to
// the pending buffer. Without this, one aborted receiver would stall its
// endpoint's whole inbox and deadlock every sender behind the backpressure —
// the failure mode the query-abort protocol exists to prevent.
//
// A finished query's streams are dropped as a whole (UnroutePrefix): its
// routes and pending messages go, and a message that arrives for one of its
// streams afterwards is counted (Dropped) and discarded instead of pending
// forever.
type Router struct {
	mu           sync.Mutex
	routes       map[routeKey]*route     // guarded by mu
	pending      map[routeKey][]Envelope // guarded by mu
	dropped      map[string]struct{}     // guarded by mu — prefixes UnroutePrefix dropped
	droppedMsgs  int64                   // guarded by mu
	droppedBytes int64                   // guarded by mu
	stopped      bool                    // guarded by mu
	stop         chan struct{}
	done         chan struct{}
}

type route struct {
	ch   chan Envelope
	gone chan struct{} // closed by Unroute
}

type routeKey struct {
	t      MsgType
	stream string
}

// routeBuffer is the depth of each route channel; senders of a flow respect
// end-to-end backpressure through the bus, so this only smooths bursts.
const routeBuffer = 256

// NewRouter starts routing the inbox. Call Stop to terminate the routing
// goroutine (usually when the engine shuts down).
func NewRouter(inbox <-chan Envelope) *Router {
	r := &Router{
		routes:  map[routeKey]*route{},
		pending: map[routeKey][]Envelope{},
		dropped: map[string]struct{}{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	//lint:ignore gohygiene the dispatch loop runs for the router's lifetime, never fails, and is joined via the done channel in Stop
	go r.run(inbox)
	return r
}

func (r *Router) run(inbox <-chan Envelope) {
	defer close(r.done)
	for {
		select {
		case env, ok := <-inbox:
			if !ok {
				return
			}
			r.dispatch(env)
		case <-r.stop:
			return
		}
	}
}

func (r *Router) dispatch(env Envelope) {
	k := routeKey{t: env.Type, stream: env.Stream}
	r.mu.Lock()
	rt, ok := r.routes[k]
	if !ok {
		r.pendLocked(k, env)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	// Deliver outside the lock; the route channel applies backpressure. If
	// the receiver unroutes mid-delivery the message falls back to pending,
	// keeping the dispatch loop live for the endpoint's other streams.
	select {
	case rt.ch <- env:
	case <-rt.gone:
		r.mu.Lock()
		if !r.stopped {
			r.pendLocked(k, env)
		}
		r.mu.Unlock()
	case <-r.stop:
	}
}

// pendLocked keeps a message no route takes until its stream is routed —
// unless the stream lies under a dropped prefix, where no route will ever
// come: then the message is counted and discarded.
func (r *Router) pendLocked(k routeKey, env Envelope) {
	if r.droppedLocked(k.stream) {
		r.droppedMsgs++
		r.droppedBytes += env.wireSize()
		return
	}
	r.pending[k] = append(r.pending[k], env)
}

// droppedLocked reports whether stream lies under a prefix UnroutePrefix
// dropped. It looks up each of the stream's prefixes, so its cost does not
// grow with the number of dropped prefixes.
func (r *Router) droppedLocked(stream string) bool {
	if len(r.dropped) == 0 {
		return false
	}
	for i := 0; i <= len(stream); i++ {
		if _, ok := r.dropped[stream[:i]]; ok {
			return true
		}
	}
	return false
}

// Route subscribes to messages of the given type and stream. Registering the
// same route twice is a programming error. Messages that arrived before the
// subscription are in the channel, in arrival order, when Route returns —
// the receivers' EOS accounting relies on it — however many there are:
// until the route is published its channel is private, so Route makes it
// only once it knows the backlog, sized to it, and fills it without holding
// the lock and without ever blocking. Anything arriving meanwhile stays
// pending for the next round.
func (r *Router) Route(t MsgType, stream string) (<-chan Envelope, error) {
	k := routeKey{t: t, stream: stream}
	var ch chan Envelope
	var backlog []Envelope
	for {
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return nil, fmt.Errorf("netsim: router stopped")
		}
		if _, dup := r.routes[k]; dup {
			r.mu.Unlock()
			return nil, fmt.Errorf("netsim: route %v/%q already registered", t, stream)
		}
		if r.droppedLocked(stream) {
			r.mu.Unlock()
			return nil, fmt.Errorf("netsim: route %v/%q is under a dropped prefix", t, stream)
		}
		more := r.pending[k]
		if len(more) == 0 {
			if ch == nil {
				ch = make(chan Envelope, routeBuffer)
			}
			r.routes[k] = &route{ch: ch, gone: make(chan struct{})}
			r.mu.Unlock()
			return ch, nil
		}
		delete(r.pending, k)
		r.mu.Unlock()
		// Room for the whole backlog on top of the usual buffer, so none of
		// these sends can block.
		backlog = append(backlog, more...)
		ch = make(chan Envelope, routeBuffer+len(backlog))
		for _, env := range backlog {
			ch <- env
		}
	}
}

// Unroute removes a subscription (between queries, so stream names can be
// reused safely). Any delivery blocked on the route's full channel is
// released to the pending buffer, so an aborting receiver never stalls the
// endpoint's dispatch loop.
func (r *Router) Unroute(t MsgType, stream string) {
	k := routeKey{t: t, stream: stream}
	r.mu.Lock()
	if rt, ok := r.routes[k]; ok {
		close(rt.gone)
		delete(r.routes, k)
	}
	r.mu.Unlock()
}

// UnroutePrefix drops every stream whose name starts with prefix — a
// finished query's, when prefix is its stream prefix: each route goes as
// Unroute removes it, every pending message goes, and from now on a message
// for such a stream that no route takes is counted (Dropped) and discarded
// instead of kept. Routing a stream under the prefix fails. The router
// keeps the prefix itself, one string per dropped prefix.
func (r *Router) UnroutePrefix(prefix string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, rt := range r.routes {
		if strings.HasPrefix(k.stream, prefix) {
			close(rt.gone)
			delete(r.routes, k)
		}
	}
	for k, envs := range r.pending {
		if strings.HasPrefix(k.stream, prefix) {
			for _, env := range envs {
				r.droppedMsgs++
				r.droppedBytes += env.wireSize()
			}
			delete(r.pending, k)
		}
	}
	r.dropped[prefix] = struct{}{}
}

// Dropped reports the messages, and their accounted wire bytes, discarded
// for streams under a dropped prefix: pending when UnroutePrefix ran, or
// arriving after it with no route to take them.
func (r *Router) Dropped() (msgs, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedMsgs, r.droppedBytes
}

// Stop terminates routing. Buffered messages are dropped. Stop never waits
// behind a blocked delivery: the dispatch loop gives up its pending send
// when the router stops, and Route never blocks.
func (r *Router) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	r.mu.Unlock()
	<-r.done
}
