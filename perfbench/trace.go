package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the enclosing span's ID (0 at the top);
// spans caused by one request share its Trace identifier.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Trace  int     `json:"trace,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if trace == 0 && parent != 0 {
		trace = t.spans[parent-1].Trace // a child belongs to its parent's request
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent, 0)
	fn()
	t.end(id)
}

// add appends spans recorded elsewhere (a child process), shifting them by
// offset seconds and renumbering them after the spans already held.
func (t *tracer) add(spans []span, offset float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		t.spans = append(t.spans, s)
	}
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the closed spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes maps each span ID to its duration minus the part of its interval
// covered by its direct children (overlapping children count once).
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total float64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerTimes returns the self times of the spans called name: what the
// layer itself spent, with the time of the calls it made into other traced
// layers taken out.
func layerTimes(spans []span, name string) []float64 {
	st := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, st[s.ID])
		}
	}
	return out
}
