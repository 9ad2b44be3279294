package netsim

import (
	"strings"
	"testing"
	"time"
)

func routerFixture(t *testing.T) (*ChanBus, *Router) {
	t.Helper()
	b := NewChanBus(64)
	if _, err := b.Register("db/0"); err != nil {
		t.Fatal(err)
	}
	inbox, err := b.Register("jen/0")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(inbox)
	t.Cleanup(r.Stop)
	return b, r
}

func TestRouterDispatchByTypeAndStream(t *testing.T) {
	b, r := routerFixture(t)
	rows, err := r.Route(MsgRows, "q1/shuffle")
	if err != nil {
		t.Fatal(err)
	}
	blooms, err := r.Route(MsgBloom, "q1/bfdb")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send("db/0", "jen/0", Msg{Type: MsgBloom, Stream: "q1/bfdb", Payload: []byte("bf")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: "q1/shuffle", Payload: []byte("rows")}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-blooms:
		if string(env.Payload) != "bf" {
			t.Errorf("bloom payload %q", env.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("bloom route starved")
	}
	select {
	case env := <-rows:
		if string(env.Payload) != "rows" {
			t.Errorf("rows payload %q", env.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("rows route starved")
	}
}

func TestRouterBuffersPreSubscriptionMessages(t *testing.T) {
	b, r := routerFixture(t)
	// Messages arrive before anyone subscribes.
	for i := 0; i < 5; i++ {
		if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: "early", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Give the router time to buffer them as pending.
	time.Sleep(20 * time.Millisecond)
	ch, err := r.Route(MsgRows, "early")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		select {
		case env := <-ch:
			if env.Payload[0] != byte(i) {
				t.Fatalf("pending out of order: %d", env.Payload[0])
			}
		case <-time.After(time.Second):
			t.Fatalf("pending message %d never delivered", i)
		}
	}
}

func TestRouterDuplicateRouteRejected(t *testing.T) {
	_, r := routerFixture(t)
	if _, err := r.Route(MsgRows, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(MsgRows, "s"); err == nil {
		t.Error("duplicate route: want error")
	}
	// Unroute allows re-registration (stream reuse across queries).
	r.Unroute(MsgRows, "s")
	if _, err := r.Route(MsgRows, "s"); err != nil {
		t.Errorf("re-route after Unroute: %v", err)
	}
}

func TestRouterStopIsIdempotentAndRejectsRoutes(t *testing.T) {
	_, r := routerFixture(t)
	r.Stop()
	r.Stop() // no panic
	if _, err := r.Route(MsgRows, "s"); err == nil {
		t.Error("route after stop: want error")
	}
}

func TestRouterStopUnblocksFullRoute(t *testing.T) {
	b, r := routerFixture(t)
	ch, err := r.Route(MsgRows, "full")
	if err != nil {
		t.Fatal(err)
	}
	_ = ch // never drained
	// Overfill the route buffer; the router goroutine will block delivering.
	go func() {
		for i := 0; i < routeBuffer+50; i++ {
			if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: "full"}); err != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked on a full route")
	}
}

func TestRouterClosedInboxTerminates(t *testing.T) {
	inbox := make(chan Envelope)
	r := NewRouter(inbox)
	close(inbox)
	done := make(chan struct{})
	go func() {
		r.Stop() // must return promptly since run() exited on close
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("router did not terminate on closed inbox")
	}
}

// backlogRouter starts a hand-built router whose inbox already holds n
// messages of one stream, and waits until all n are pending. It registers
// no Stop cleanup: a router wedged in Route holds its mutex forever, and
// Stop would wait on it, so a failing run leaks the router instead of
// hanging the test.
func backlogRouter(t *testing.T, n int) (*Router, chan Envelope) {
	t.Helper()
	inbox := make(chan Envelope, n+2*routeBuffer)
	for i := 0; i < n; i++ {
		inbox <- Envelope{From: "db/0", Msg: Msg{Type: MsgRows, Stream: "s", Payload: []byte{byte(i), byte(i >> 8)}}}
	}
	r := NewRouter(inbox)
	k := routeKey{t: MsgRows, stream: "s"}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		got := len(r.pending[k])
		r.mu.Unlock()
		if got == n {
			return r, inbox
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages pending after 2 s", got, n)
		}
	}
}

// routeWithin registers the backlogged route, failing the test if Route
// does not return within 2 s.
func routeWithin(t *testing.T, r *Router) <-chan Envelope {
	t.Helper()
	routed := make(chan (<-chan Envelope), 1)
	go func() {
		ch, err := r.Route(MsgRows, "s")
		if err != nil {
			t.Error(err)
		}
		routed <- ch
	}()
	select {
	case ch := <-routed:
		return ch
	case <-time.After(2 * time.Second):
		t.Fatal("Route wedged on a backlog larger than the route buffer")
		return nil
	}
}

// expectInOrder receives messages from..to-1 of backlogRouter's numbering.
func expectInOrder(t *testing.T, ch <-chan Envelope, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		select {
		case env := <-ch:
			if got := int(env.Payload[0]) | int(env.Payload[1])<<8; got != i {
				t.Fatalf("message %d arrived as number %d", got, i)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

// One message more than the route buffer was pending when the route was
// registered: Route must not block delivering it.
func TestRouterRouteDoesNotWedgeOnBacklog(t *testing.T) {
	r, _ := backlogRouter(t, routeBuffer+1)
	ch := routeWithin(t, r)
	expectInOrder(t, ch, 0, routeBuffer+1)
	r.Stop()
}

// Ten thousand pending messages all arrive, in order, and so do messages
// that arrive while the backlog drains.
func TestRouterDeliversLargeBacklogInOrder(t *testing.T) {
	const n = 10000
	r, inbox := backlogRouter(t, n)
	ch := routeWithin(t, r)
	for i := n; i < n+10; i++ {
		inbox <- Envelope{From: "db/0", Msg: Msg{Type: MsgRows, Stream: "s", Payload: []byte{byte(i), byte(i >> 8)}}}
	}
	expectInOrder(t, ch, 0, n+10)
	r.Stop()
}

// Stop returns while a delivery to a backlogged route nobody drains is
// blocked on its full channel.
func TestRouterStopReturnsWhileDeliveryBlocked(t *testing.T) {
	const n = routeBuffer + 1
	r, inbox := backlogRouter(t, n)
	_ = routeWithin(t, r) // never drained
	for i := n; i < n+routeBuffer+8; i++ {
		inbox <- Envelope{From: "db/0", Msg: Msg{Type: MsgRows, Stream: "s", Payload: []byte{byte(i), byte(i >> 8)}}}
	}
	// The channel holds n+routeBuffer messages; the dispatch loop blocks on
	// the next.
	for deadline := time.Now().Add(2 * time.Second); len(inbox) > 7; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dispatch stalled early: %d messages still in the inbox", len(inbox))
		}
	}
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop waited behind a blocked delivery")
	}
}

// prefixFixture is routerFixture with two queries' worth of streams: for
// each of q1/ and q2/, an open route and a stream with three pending
// messages and no route; and q1/full, a route whose channel is full and
// whose next delivery blocks the dispatch loop.
func prefixFixture(t *testing.T) (*ChanBus, *Router, map[string]<-chan Envelope) {
	t.Helper()
	b, r := routerFixture(t)
	chans := map[string]<-chan Envelope{}
	for _, s := range []string{"q1/open", "q1/full", "q2/open"} {
		ch, err := r.Route(MsgRows, s)
		if err != nil {
			t.Fatal(err)
		}
		chans[s] = ch
	}
	for _, q := range []string{"q1/", "q2/"} {
		for i := 0; i < 3; i++ {
			if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: q + "early", Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < routeBuffer+1; i++ {
		if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: "q1/full"}); err != nil {
			t.Fatal(err)
		}
	}
	// The dispatch loop takes the inbox in order: once q1/full's channel is
	// full, the early messages are pending, and the last q1/full message is
	// blocked in delivery or about to be.
	waitFor(t, "q1/full filled", func() bool { return len(chans["q1/full"]) == routeBuffer })
	return b, r, chans
}

// waitFor polls cond until it holds, failing the test after 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after 2 s", what)
		}
	}
}

// heldUnder counts the routes and pending messages the router holds for
// streams under prefix.
func heldUnder(r *Router, prefix string) (routes, pending int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.routes {
		if strings.HasPrefix(k.stream, prefix) {
			routes++
		}
	}
	for k, envs := range r.pending {
		if strings.HasPrefix(k.stream, prefix) {
			pending += len(envs)
		}
	}
	return routes, pending
}

// After UnroutePrefix the router holds nothing under the prefix: its routes
// are gone, its pending messages are gone, and the delivery that was
// blocked on its full route is released and discarded rather than parked.
// Routing under the prefix fails.
func TestRouterUnroutePrefixDropsEverything(t *testing.T) {
	_, r, _ := prefixFixture(t)
	if routes, pending := heldUnder(r, "q1/"); routes != 2 || pending != 3 {
		t.Fatalf("before: %d routes, %d pending under q1/", routes, pending)
	}
	r.UnroutePrefix("q1/")
	// The blocked q1/full delivery falls back once its route is gone; wait
	// until it is counted.
	waitFor(t, "blocked delivery discarded", func() bool {
		msgs, _ := r.Dropped()
		return msgs == 4
	})
	if routes, pending := heldUnder(r, "q1/"); routes != 0 || pending != 0 {
		t.Errorf("after: %d routes, %d pending under q1/", routes, pending)
	}
	if _, err := r.Route(MsgRows, "q1/early"); err == nil {
		t.Error("routed a stream under a dropped prefix")
	}
}

// Messages sent under a dropped prefix after UnroutePrefix are discarded
// and counted, never stored: 100 × 1 KB leave nothing pending.
func TestRouterUnroutePrefixCountsLateMessages(t *testing.T) {
	b, r, _ := prefixFixture(t)
	r.UnroutePrefix("q1/")
	waitFor(t, "blocked delivery discarded", func() bool {
		msgs, _ := r.Dropped()
		return msgs == 4
	})
	_, before := r.Dropped()
	payload := make([]byte, 1024)
	for i := 0; i < 100; i++ {
		stream := []string{"q1/open", "q1/full", "q1/early", "q1/late"}[i%4]
		if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: stream, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "late messages counted", func() bool {
		msgs, _ := r.Dropped()
		return msgs == 104
	})
	if _, bytes := r.Dropped(); bytes-before < 100*1024 {
		t.Errorf("dropped %d bytes for 100 × 1 KB", bytes-before)
	}
	if routes, pending := heldUnder(r, "q1/"); routes != 0 || pending != 0 {
		t.Errorf("%d routes, %d pending under q1/", routes, pending)
	}
}

// UnroutePrefix leaves every other prefix as it was: q2/'s open route still
// delivers, and its pending messages still arrive, in order, when it
// routes. A prefix that merely shares leading characters (q10/ with q1/) is
// untouched.
func TestRouterUnroutePrefixLeavesOtherPrefixes(t *testing.T) {
	b, r, chans := prefixFixture(t)
	ten, err := r.Route(MsgRows, "q10/open")
	if err != nil {
		t.Fatal(err)
	}
	r.UnroutePrefix("q1/")
	if routes, pending := heldUnder(r, "q2/"); routes != 1 || pending != 3 {
		t.Errorf("q2/: %d routes, %d pending", routes, pending)
	}
	early, err := r.Route(MsgRows, "q2/early")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case env := <-early:
			if env.Payload[0] != byte(i) {
				t.Fatalf("q2/early message %d arrived as %d", i, env.Payload[0])
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("q2/early message %d never arrived", i)
		}
	}
	for stream, ch := range map[string]<-chan Envelope{"q2/open": chans["q2/open"], "q10/open": ten} {
		if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: stream}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s no longer delivers", stream)
		}
	}
	if msgs, _ := r.Dropped(); msgs > 4 {
		t.Errorf("dropped %d messages; only q1/'s 4 were due", msgs)
	}
}
