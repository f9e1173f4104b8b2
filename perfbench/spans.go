package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one op share Op (-1 for set-up); Parent is the index of the
// enclosing span, -1 for the op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory on the benchmark's own goroutine; they
// are written out once the run ends. A nil *tracer records nothing, which
// is how untraced ops run the same code.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// opSpans returns the spans of the current op.
func (t *tracer) opSpans() []span {
	i := len(t.spans)
	for i > 0 && t.spans[i-1].Op == t.op {
		i--
	}
	return t.spans[i:]
}

// dur sums the durations of the spans called name.
func dur(spans []span, name string) int64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return ns
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates per-layer samples: per-call values (durations in ns,
// sizes, counts) for percentiles and means, and totals for ratios.
type layers struct {
	samples map[string][]float64
	totals  map[string]float64
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, totals: map[string]float64{}}
}

func (l *layers) add(name string, v float64)   { l.samples[name] = append(l.samples[name], v) }
func (l *layers) count(name string, v float64) { l.totals[name] += v }

// addSpans files the durations of spans (in ns) under their names.
func (l *layers) addSpans(spans []span) {
	for _, s := range spans {
		if s.Op >= 0 && s.Parent == -1 {
			continue // op roots are the end-to-end latency, not a layer
		}
		l.add(s.Name, float64(s.End-s.Start))
	}
}

// us is the p-th percentile of a duration sample in microseconds. A layer
// this workload never called reports 0.
func (l *layers) us(name string, p int) (float64, error) {
	xs := l.samples[name]
	if len(xs) == 0 {
		return 0, nil
	}
	v, err := percentile(xs, p)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return v / 1e3, nil
}

// short reports whether a tail-percentile sample is non-empty but still
// too small for its p99.
func (l *layers) short(names ...string) bool {
	for _, n := range names {
		if k := len(l.samples[n]); k > 0 && k < tailSamples(99) {
			return true
		}
	}
	return false
}

// mallocs is the process's cumulative heap-object allocation count. It
// stops the world, so it is read only outside timed intervals.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}
