package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is the parent of a root span and
// what every method of a nil tracer returns.
type spanID int32

const noSpan spanID = -1

// span is one call across a layer boundary, timed by the benchmark from
// outside the layer. inner is time the span spent in high-frequency
// calls that are aggregated rather than recorded one span each (the
// timing target's per-app counter reads, allocation writes and steps);
// self time subtracts it like a child span.
type span struct {
	name       string
	parent     spanID
	start, end int64 // ns since the tracer's epoch
	inner      int64
}

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer is the untraced run: every method is
// a no-op, so traced and untraced runs share their code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent.
func (t *tracer) begin(name string, parent spanID) spanID {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: -1})
	return spanID(len(t.spans) - 1)
}

// end closes a span.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// addInner charges d of aggregated inner-call time to a span.
func (t *tracer) addInner(id spanID, d time.Duration) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].inner += int64(d)
	t.mu.Unlock()
}

// layerTimes holds, per span name, each span's duration and self time in
// nanoseconds, in recording order.
type layerTimes struct {
	dur  map[string][]float64
	self map[string][]float64
}

// times computes every closed span's duration and self time: the
// duration minus the part of the span's interval its child spans cover
// (overlapping children, as parallel cells are, count once) minus its
// aggregated inner time.
func (t *tracer) times() layerTimes {
	out := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[spanID][]span)
	for _, s := range t.spans {
		if s.parent != noSpan && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		self := d - covered(s.start, s.end, children[spanID(i)]) - s.inner
		if self < 0 {
			self = 0
		}
		out.dur[s.name] = append(out.dur[s.name], float64(d))
		out.self[s.name] = append(out.self[s.name], float64(self))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write saves the spans gzip-compressed, one "id parent name start_ns
// end_ns inner_ns" line each, creating the file's directory.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d %d %s %d %d %d\n", i, s.parent, s.name, s.start, s.end, s.inner)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
