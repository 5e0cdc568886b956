package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request, build or solve
// share Op; Parent is the ID of the span that caused this one (0 for the
// operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per layer call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	ops   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// handle is an open span; end records it.
type handle struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span. op 0 starts a new operation rooted at this span.
func (t *tracer) begin(name string, op, parent int64) handle {
	if t == nil {
		return handle{}
	}
	if op == 0 {
		op = t.ops.Add(1)
	}
	now := time.Now()
	return handle{t: t, start: now, s: span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(now.Sub(t.epoch)),
	}}
}

func (h handle) end() {
	if h.t == nil {
		return
	}
	h.s.End = h.s.Start + int64(time.Since(h.start))
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// since returns the spans that started at or after from.
func (t *tracer) since(from time.Time) []span {
	cut := int64(from.Sub(t.epoch))
	var out []span
	for _, s := range t.snapshot() {
		if s.Start >= cut {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its direct children. Children may overlap each other
// (concurrent calls) and may stick out of the parent; only the union of
// their clipped intervals is subtracted.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// meanSelfMS is the mean self time, in ms, of the spans named name.
func meanSelfMS(spans []span, name string) float64 {
	st := selfTimes(spans)
	var sum int64
	var n int
	for _, s := range spans {
		if s.Name == name {
			sum += st[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// accounted returns Σ self time of every span over Σ root-span duration:
// 1 when the layers' self times add up to the operations' wall time.
func accounted(spans []span) float64 {
	st := selfTimes(spans)
	var sum, wall int64
	for _, s := range spans {
		sum += st[s.ID]
		if s.Parent == 0 {
			wall += s.dur()
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(sum) / float64(wall)
}

// writeSpans writes the spans as JSON lines under dir, one file per run.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
