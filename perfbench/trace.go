package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Name is "<layer>.<what>";
// Op groups the spans of one benchmark operation (one solve, one job, one
// posterior op), and Parent is the span that caused this one (0 for an
// operation's root).
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the tracer's epoch
	End    float64 `json:"end_ms"`
}

// Layer is the module the span is charged to.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	next  int64
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its id (0 on a nil tracer).
func (t *Tracer) Add(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{
		ID: t.next, Parent: parent, Op: op, Name: name,
		Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch)),
	})
	return t.next
}

// NewOp reserves an operation id.
func (t *Tracer) NewOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per layer, the summed self time of its spans in
// milliseconds: each span's duration minus the part of its interval that
// its child spans cover.
func selfTimes(spans []Span) map[string]float64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer()] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent Span, kids []Span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			if i > 0 {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// writeSpans writes the run's metadata and then one span per line.
func writeSpans(path string, meta map[string]any, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
