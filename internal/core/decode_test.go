package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hybridwh/internal/hdfs"
	"hybridwh/internal/jen"
	"hybridwh/internal/netsim"
	"hybridwh/internal/skew"
)

// A control payload whose declared count would size a 2^34-entry map must be
// rejected from the bytes actually present, not allocated and then found
// truncated.
func TestDecodersRejectOversizedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<34)
	sketchHead := func(capacity, n uint64) []byte {
		b := binary.AppendUvarint(nil, capacity)
		b = binary.AppendVarint(b, 1) // total
		b = binary.AppendVarint(b, 0) // error bound
		return binary.AppendUvarint(b, n)
	}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"keyset", func() error { _, err := jen.UnmarshalKeySet(append(huge, 2)); return err }},
		{"hotset", func() error { _, err := skew.UnmarshalHotSet(append(huge, 2)); return err }},
		{"sketch-entries", func() error { _, err := skew.UnmarshalSketch(append(sketchHead(4, 1<<34), 2, 2)); return err }},
		{"sketch-capacity", func() error { _, err := skew.UnmarshalSketch(sketchHead(1<<34, 0)); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(); err == nil {
				t.Fatal("payload declaring 2^34 elements decoded without error")
			}
		})
	}
}

func testSketch() *skew.Sketch {
	sk := skew.NewSketch(4)
	for i := int64(0); i < 40; i++ {
		sk.Add(i % 13 * -7)
	}
	return sk
}

// The fuzzers below cover every decoder the control fan-in calls. Each
// checks that arbitrary bytes decode or error without panicking, and that a
// successful decode survives marshal → decode unchanged.

func FuzzUnmarshalKeySet(f *testing.F) {
	f.Add(jen.KeySet{}.Marshal())
	f.Add(jen.KeySet{-5: {}, 0: {}, 3: {}, 1 << 40: {}}.Marshal())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := jen.UnmarshalKeySet(b)
		if err != nil {
			return
		}
		back, err := jen.UnmarshalKeySet(s.Marshal())
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("key set round trip: %v", err)
		}
	})
}

func FuzzUnmarshalObs(f *testing.F) {
	f.Add(obsSnapshot{scanned: 100, survived: 40, sketch: testSketch()}.marshal())
	f.Add(obsSnapshot{tRows: 7, tBytes: 112}.marshal())
	f.Add(make([]byte, 31))
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := unmarshalObs(b)
		if err != nil {
			return
		}
		back, err := unmarshalObs(o.marshal())
		if err != nil || !reflect.DeepEqual(back, o) {
			t.Fatalf("observation round trip: %v", err)
		}
	})
}

func FuzzUnmarshalDecision(f *testing.F) {
	f.Add((&adaptDecision{kind: keepPlan, reason: "keep"}).marshal())
	f.Add((&adaptDecision{kind: switchHybrid, reason: "hot → hybrid", hot: skew.NewHotSet([]int64{-3, 9, 1 << 33})}).marshal())
	f.Add([]byte{byte(switchBroadcast), 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := unmarshalDecision(b)
		if err != nil {
			return
		}
		back, err := unmarshalDecision(d.marshal())
		if err != nil || !reflect.DeepEqual(back, d) {
			t.Fatalf("decision round trip: %v", err)
		}
	})
}

func FuzzDecodeAbort(f *testing.F) {
	for _, cause := range []error{
		netsim.ErrEndpointDown, hdfs.ErrNoLiveReplica,
		context.DeadlineExceeded, context.Canceled, errors.New("disk full"),
	} {
		f.Add(encodeAbort(fmt.Errorf("worker failed: %w", cause)))
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		err := decodeAbort("jen0", "q1/shuffle", netsim.Envelope{From: "db1", Msg: netsim.Msg{Type: netsim.MsgError, Payload: b}})
		if !errors.Is(err, ErrRemoteAbort) {
			t.Fatalf("decoded abort %v does not wrap ErrRemoteAbort", err)
		}
		if len(b) == 0 {
			return
		}
		// Re-encoding keeps the root-cause class and the sender's message.
		back := decodeAbort("jen0", "q1/shuffle", netsim.Envelope{From: "db1", Msg: netsim.Msg{Type: netsim.MsgError, Payload: encodeAbort(err)}})
		for _, cause := range []error{netsim.ErrEndpointDown, hdfs.ErrNoLiveReplica, context.DeadlineExceeded, context.Canceled} {
			if errors.Is(back, cause) != errors.Is(err, cause) {
				t.Fatalf("cause %v lost: %v → %v", cause, err, back)
			}
		}
		if !strings.Contains(back.Error(), string(b[1:])) {
			t.Fatalf("message lost: %q → %v", b[1:], back)
		}
	})
}
