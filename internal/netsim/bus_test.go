package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hybridwh/internal/cluster"
)

// busFactories lets every test run against both transports.
var busFactories = map[string]func(buffer int) Bus{
	"chan": func(buffer int) Bus { return NewChanBus(buffer) },
	"tcp":  func(buffer int) Bus { return NewTCPBus(buffer) },
}

func TestSendReceiveBothTransports(t *testing.T) {
	for name, mk := range busFactories {
		t.Run(name, func(t *testing.T) {
			b := mk(16)
			defer b.Close()
			_, err := b.Register("db/0")
			if err != nil {
				t.Fatal(err)
			}
			inbox, err := b.Register("jen/0")
			if err != nil {
				t.Fatal(err)
			}
			msg := Msg{Type: MsgRows, Stream: "L", Payload: []byte("hello rows")}
			if err := b.Send("db/0", "jen/0", msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
			select {
			case env := <-inbox:
				if env.From != "db/0" || env.Type != MsgRows || env.Stream != "L" || string(env.Payload) != "hello rows" {
					t.Errorf("got %+v", env)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("timed out waiting for message")
			}
		})
	}
}

func TestOrderingPerSenderPair(t *testing.T) {
	for name, mk := range busFactories {
		t.Run(name, func(t *testing.T) {
			b := mk(4)
			defer b.Close()
			if _, err := b.Register("db/0"); err != nil {
				t.Fatal(err)
			}
			inbox, err := b.Register("jen/0")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				for i := 0; i < 200; i++ {
					if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Payload: []byte{byte(i)}}); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < 200; i++ {
				env := <-inbox
				if env.Payload[0] != byte(i) {
					t.Fatalf("out of order at %d: got %d", i, env.Payload[0])
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestManyToOneConcurrent(t *testing.T) {
	for name, mk := range busFactories {
		t.Run(name, func(t *testing.T) {
			b := mk(64)
			defer b.Close()
			const senders, each = 8, 100
			inbox, err := b.Register("jen/0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				from := fmt.Sprintf("db/%d", s)
				if _, err := b.Register(from); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(from string) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := b.Send(from, "jen/0", Msg{Type: MsgRows, Payload: []byte(from)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(from)
			}
			got := map[string]int{}
			for i := 0; i < senders*each; i++ {
				env := <-inbox
				got[env.From]++
			}
			wg.Wait()
			for s := 0; s < senders; s++ {
				from := fmt.Sprintf("db/%d", s)
				if got[from] != each {
					t.Errorf("%s delivered %d, want %d", from, got[from], each)
				}
			}
		})
	}
}

func TestUnknownEndpointsError(t *testing.T) {
	for name, mk := range busFactories {
		t.Run(name, func(t *testing.T) {
			b := mk(4)
			defer b.Close()
			if _, err := b.Register("db/0"); err != nil {
				t.Fatal(err)
			}
			if err := b.Send("db/0", "jen/9", Msg{Type: MsgEOS}); err == nil {
				t.Error("unknown receiver: want error")
			}
			if err := b.Send("db/9", "db/0", Msg{Type: MsgEOS}); err == nil {
				t.Error("unknown sender: want error")
			}
			if _, err := b.Register("db/0"); err == nil {
				t.Error("duplicate register: want error")
			}
		})
	}
}

func TestCountersByLinkClass(t *testing.T) {
	for name, mk := range busFactories {
		t.Run(name, func(t *testing.T) {
			b := mk(16)
			defer b.Close()
			for _, ep := range []string{"db/0", "db/1", "jen/0", "jen/1"} {
				if _, err := b.Register(ep); err != nil {
					t.Fatal(err)
				}
			}
			pay := Msg{Type: MsgRows, Payload: make([]byte, 100)}
			want := pay.wireSize()
			if err := b.Send("db/0", "db/1", pay); err != nil {
				t.Fatal(err)
			}
			if err := b.Send("jen/0", "jen/1", pay); err != nil {
				t.Fatal(err)
			}
			if err := b.Send("db/0", "jen/1", pay); err != nil {
				t.Fatal(err)
			}
			if err := b.Send("jen/1", "db/0", pay); err != nil {
				t.Fatal(err)
			}
			c := b.Counters()
			if got := c.Bytes(cluster.IntraDB); got != want {
				t.Errorf("intra-db bytes = %d, want %d", got, want)
			}
			if got := c.Bytes(cluster.IntraHDFS); got != want {
				t.Errorf("intra-hdfs bytes = %d, want %d", got, want)
			}
			if got := c.Bytes(cluster.Cross); got != 2*want {
				t.Errorf("cross bytes = %d, want %d", got, 2*want)
			}
			if got := c.Messages(cluster.Cross); got != 2 {
				t.Errorf("cross msgs = %d", got)
			}
			if got := c.SentBy("db/0"); got != 2*want {
				t.Errorf("SentBy(db/0) = %d", got)
			}
			if got := c.RecvBy("jen/1"); got != 2*want {
				t.Errorf("RecvBy(jen/1) = %d", got)
			}
			c.Reset()
			if c.Bytes(cluster.Cross) != 0 || c.SentBy("db/0") != 0 {
				t.Error("Reset left counters")
			}
		})
	}
}

func TestCountersIdenticalAcrossTransports(t *testing.T) {
	run := func(b Bus) int64 {
		defer b.Close()
		if _, err := b.Register("db/0"); err != nil {
			panic(err)
		}
		inbox, err := b.Register("jen/0")
		if err != nil {
			panic(err)
		}
		for i := 0; i < 10; i++ {
			if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Stream: "L", Payload: make([]byte, 50+i)}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 10; i++ {
			<-inbox
		}
		return b.Counters().Bytes(cluster.Cross)
	}
	chanBytes := run(NewChanBus(16))
	tcpBytes := run(NewTCPBus(16))
	if chanBytes != tcpBytes {
		t.Errorf("transports disagree on accounting: chan=%d tcp=%d", chanBytes, tcpBytes)
	}
}

func TestTCPCloseUnblocksStalledReaders(t *testing.T) {
	b := NewTCPBus(1) // tiny inbox: receiver never drains
	if _, err := b.Register("db/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("jen/0"); err != nil {
		t.Fatal(err)
	}
	// Fill well past the inbox; sends succeed because TCP buffers them.
	for i := 0; i < 50; i++ {
		if err := b.Send("db/0", "jen/0", Msg{Type: MsgRows, Payload: make([]byte, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with stalled reader")
	}
}

func TestSendAfterCloseErrors(t *testing.T) {
	b := NewTCPBus(4)
	if _, err := b.Register("db/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register("db/1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("db/0", "db/1", Msg{Type: MsgEOS}); err == nil {
		t.Error("send after close: want error")
	}
	if _, err := b.Register("db/2"); err == nil {
		t.Error("register after close: want error")
	}
	if err := b.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, mt := range []MsgType{MsgBloom, MsgRows, MsgEOS, MsgAgg, MsgControl, MsgError, MsgType(99)} {
		if mt.String() == "" {
			t.Errorf("MsgType(%d).String() empty", mt)
		}
	}
}

// A stream's query prefix is accounted at a fixed three bytes, whatever the
// query number; names without one count in full.
func TestStreamSizeIgnoresQueryNumber(t *testing.T) {
	for s, want := range map[string]int64{
		"q1/shuffle": 10, "q10/shuffle": 10, "q123456/shuffle": 10,
		"shuffle": 7, "q/shuffle": 9, "qx/shuffle": 10, "q12": 3, "": 0,
	} {
		if got := streamSize(s); got != want {
			t.Errorf("streamSize(%q) = %d, want %d", s, got, want)
		}
	}
}
