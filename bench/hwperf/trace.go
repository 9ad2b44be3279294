package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one request
// share Query; Parent is the span that caused this one (0 for a root).
// Every span is recorded from this package, around the call into the layer
// — the engine itself is not instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   string `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	RowsIn  int64  `json:"rows_in,omitempty"`
	RowsOut int64  `json:"rows_out,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) start(parent int, query, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes a span with its counts.
func (t *tracer) end(id int, rowsIn, rowsOut, bytes int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs, s.RowsIn, s.RowsOut, s.Bytes = now, rowsIn, rowsOut, bytes
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	count                  int
	dur, self              time.Duration
	rowsIn, rowsOut, bytes int64
}

// totals sums duration, self time and counts per span name. A span's self
// time is its duration minus the part its children cover; children of one
// span run one after another here, so their durations add.
func totals(spans []span) map[string]*spanTotals {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		self := s.dur() - child[s.ID]
		if self < 0 {
			self = 0
		}
		t.count++
		t.dur += s.dur()
		t.self += self
		t.rowsIn += s.RowsIn
		t.rowsOut += s.RowsOut
		t.bytes += s.Bytes
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("hwperf: encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("hwperf: write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("hwperf: write trace: %w", err)
	}
	return nil
}
