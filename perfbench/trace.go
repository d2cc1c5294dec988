package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// session share its sid; Parent 0 marks a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	SID    uint64 `json:"sid"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how the untraced run pays no tracing cost.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// Begin opens a span now and returns its id.
func (t *Tracer) Begin(name string, parent int64, sid uint64) int64 {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, SID: sid, Start: now, End: now})
	return int64(len(t.spans))
}

// End closes span id now.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span whose endpoints were timed by the caller.
func (t *Tracer) Add(name string, parent int64, sid uint64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, SID: sid,
		Start: t.since(start), End: t.since(end)})
	return int64(len(t.spans))
}

// SelfTimes sums, per span name, each span's duration minus the union of
// its children's intervals.
func (t *Tracer) SelfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += selfTime(interval{s.Start, s.End}, children[s.ID])
	}
	return self
}

// WriteFile writes the spans as JSON lines, in start order.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
