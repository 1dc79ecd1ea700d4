package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps host-time spans around the benchmark's calls into psbox in
// memory; they are written out once, at exit. A nil *tracer records
// nothing, so untraced passes pay one nil check per call site.
//
// The fleet workload builds shard Systems on the pool's worker goroutines,
// so begin and end may be called concurrently.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the id of the enclosing span, 0 for a
// root. Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under parent and returns its id.
func (t *tracer) begin(name, arg string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Arg: arg, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name, arg string, parent int, f func()) {
	id := t.begin(name, arg, parent)
	defer t.end(id)
	f()
}

// selfTimes returns every span's duration minus the part of it that its
// children cover, in seconds, indexed like the spans. Children of one span
// may overlap (the fleet pool builds shards concurrently), so the covered
// part is the union of their intervals.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
