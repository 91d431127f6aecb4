package main

import (
	"time"
)

// tracer records timing spans around the benchmark's calls into each
// layer of the program. Spans stay in memory until the run ends; layers
// then reads each layer's self time out of them. A nil *tracer records
// nothing, which is how the same code runs untraced.
type tracer struct {
	base  time.Time
	names []string
	ids   map[string]int
	spans []span
	open  []int // indices of the spans not yet ended, innermost last
}

type span struct {
	name       int
	parent     int // index of the enclosing span, -1 at the root
	start, end time.Duration
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: map[string]int{}}
}

// id resolves a layer name once, so the hot loop opens spans by number.
func (t *tracer) id(name string) int {
	if t == nil {
		return -1
	}
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.ids[name] = len(t.names)
	t.names = append(t.names, name)
	return len(t.names) - 1
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.base)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = time.Since(t.base)
	t.open = t.open[:n]
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	Self  time.Duration // span time not covered by child spans
	Total time.Duration
	Count int
}

// layers folds the recorded spans into per-name self and total times.
func (t *tracer) layers() map[string]layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]layerTime, len(t.names))
	for i, s := range t.spans {
		lt := out[t.names[s.name]]
		lt.Total += s.end - s.start
		lt.Self += s.end - s.start - child[i]
		lt.Count++
		out[t.names[s.name]] = lt
	}
	return out
}

// emptySpanNS calibrates the instrumentation floor: the cost of opening
// and closing one span around no work, in nanoseconds.
func emptySpanNS() float64 {
	const n = 200_000
	t := newTracer()
	id := t.id("empty")
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(id)
		t.end()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
