// Package protocol is golden testdata for the protocol analyzer.
package protocol

import "hybridwh/internal/netsim"

func ignoredSend(b netsim.Bus) {
	b.Send("a", "b", netsim.Msg{Type: netsim.MsgControl}) // want `netsim Send error ignored`
}

func ignoredClose(b netsim.Bus) {
	b.Close() // want `netsim Close error ignored`
}

func blankSend(b netsim.Bus) {
	_ = b.Send("a", "b", netsim.Msg{Type: netsim.MsgControl}) // want `netsim Send error ignored`
}

func blankClose(b netsim.Bus) {
	_ = b.Close() // want `netsim Close error ignored`
}

// usedSendError is the near miss: the error is assigned to a name and used.
func usedSendError(b netsim.Bus) error {
	err := b.Send("a", "b", netsim.Msg{Type: netsim.MsgControl})
	if err != nil {
		return err
	}
	var closeErr error
	closeErr = b.Close()
	return closeErr
}

func deferredBusClose(b netsim.Bus) error {
	defer b.Close() // deferred last-resort cleanup: allowed
	return b.Send("a", "b", netsim.Msg{Type: netsim.MsgControl})
}

func rowsNoEOS(b netsim.Bus) error {
	return b.Send("a", "b", netsim.Msg{Type: netsim.MsgRows}) // want `MsgRows sent with no reachable MsgEOS/MsgError`
}

func rowsThenEOS(b netsim.Bus) error {
	if err := b.Send("a", "b", netsim.Msg{Type: netsim.MsgRows}); err != nil { // terminated below: allowed
		return err
	}
	return b.Send("a", "b", netsim.Msg{Type: netsim.MsgEOS})
}

func rowsThenError(b netsim.Bus) error {
	if err := b.Send("a", "b", netsim.Msg{Type: netsim.MsgRows}); err != nil { // aborted below: allowed
		return err
	}
	return b.Send("a", "b", netsim.Msg{Type: netsim.MsgError})
}

// streamer mimics the batcher pattern: flush sends rows, Close ends the
// stream, so flush alone is fine.
type streamer struct{ b netsim.Bus }

func (s *streamer) flush() error {
	return s.b.Send("a", "b", netsim.Msg{Type: netsim.MsgRows}) // sibling Close sends EOS: allowed
}

func (s *streamer) Close() error {
	return s.b.Send("a", "b", netsim.Msg{Type: netsim.MsgEOS})
}

func sendWithDeferredCleanup(b netsim.Bus) error {
	s := &streamer{b: b}
	defer s.Close() // deferred Close terminates the stream: allowed
	return s.b.Send("x", "y", netsim.Msg{Type: netsim.MsgRows})
}

func routeRowsNoError(r *netsim.Router) error {
	rows, err := r.Route(netsim.MsgRows, "s") // want `MsgRows routed without MsgError`
	if err != nil {
		return err
	}
	eos, err := r.Route(netsim.MsgEOS, "s")
	if err != nil {
		return err
	}
	_, _ = rows, eos
	return nil
}

func routeRowsWithError(r *netsim.Router) error {
	rows, err := r.Route(netsim.MsgRows, "s") // MsgError routed below: allowed
	if err != nil {
		return err
	}
	abort, err := r.Route(netsim.MsgError, "s")
	if err != nil {
		return err
	}
	_, _ = rows, abort
	return nil
}

func routeBloomOnly(r *netsim.Router) error {
	ch, err := r.Route(netsim.MsgBloom, "s") // not a row stream: allowed
	if err != nil {
		return err
	}
	_ = ch
	return nil
}
