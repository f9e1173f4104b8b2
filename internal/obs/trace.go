// Spans: the one recording path of the observability layer. Every timed
// unit of work — run → phase → slice / sigbuild job → pairing flow check
// → taint fixpoint — is a span opened with Shard.Span and closed with
// ActiveSpan.End, the only place a duration is recorded. The spanKinds
// table fixes per category what End feeds; the tracer track and the
// flight ring get every span whenever they are armed. The Tracer exports
// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
//
// Spans record on the shard the recording goroutine owns — no locks, no
// atomics, no allocation beyond the span buffer append — and a shard's
// buffer moves into the Tracer when its outermost span ends or the shard
// is drained. The run and the phases record on the collector's
// coordinator shard, track 0. A span outside the table on an untraced,
// unarmed shard reads no clock (guarded by BenchmarkTracerDisabled).
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span categories recorded by the pipeline, exported as the "cat" field of
// trace events so Perfetto can filter by pipeline layer.
const (
	// CatRun is the whole-analysis root span (one per Analyze call).
	CatRun = "run"
	// CatPhase marks the coordinator's pipeline stages.
	CatPhase = "phase"
	// CatSliceJob is one (entry point, DP site) slice-extraction job.
	CatSliceJob = "slice"
	// CatSigbuildJob is one signature-construction job.
	CatSigbuildJob = "sigbuild"
	// CatPairFlow is one information-flow pairing verification.
	CatPairFlow = "pairing"
	// CatTaintBackward / CatTaintForward are individual taint fixpoint
	// runs, nested inside the job spans that started them.
	CatTaintBackward = "taint:backward"
	CatTaintForward  = "taint:forward"
	// CatClassifyEntry is one traffic entry through the signature matcher
	// (see trace.Classify).
	CatClassifyEntry = "classify"
)

// GaugeHeapAllocAfter prefixes the per-phase heap gauges recorded when a
// tracer is attached: runtime.ReadMemStats' HeapAlloc, sampled as each
// phase ends, lands in Profile.Gauges under "<prefix><phase>".
const GaugeHeapAllocAfter = "heap_alloc_after_"

// Span is one finished unit of traced work, timed relative to the tracer's
// epoch. TID is the logical track: 0 for the coordinator, one per worker
// shard otherwise. A span never ended (e.g. a panicking job) keeps Dur 0.
type Span struct {
	TID   int64
	Cat   string
	Name  string
	Start int64 // ns since the tracer's epoch
	Dur   int64 // ns
}

// spanKind is one row of the recording table: what a span of category cat
// feeds besides the tracer and flight ring. startEv/endEv are lifecycle
// events (phase events carry the span name as Phase); phase feeds the
// collector's phase total, its phase_<name> histogram and, when traced,
// the heap gauge; jobs and busy count the job and its busy time, hist its
// latency; workers and util name the gauges Collector.Fan sets.
type spanKind struct {
	cat, startEv, endEv             string
	phase                           bool
	jobs, busy, hist, workers, util string
}

// spanKinds is the recording table. Categories absent from it (pairing
// flow checks, taint fixpoints) feed only the tracer and flight ring.
var spanKinds = [...]spanKind{
	{cat: CatRun, startEv: EvRunStart, endEv: EvRunEnd},
	{cat: CatPhase, startEv: EvPhaseStart, endEv: EvPhaseEnd, phase: true},
	{cat: CatSliceJob, jobs: CtrSliceJobs, busy: CtrSliceBusyNS, hist: HistSliceJob,
		workers: GaugeSliceWorkers, util: GaugeSliceUtilization},
	{cat: CatSigbuildJob, jobs: CtrSigbuildJobs, busy: CtrSigbuildBusyNS, hist: HistSigbuildJob,
		workers: GaugeSigbuildWorkers, util: GaugeSigbuildUtilization},
	{cat: CatClassifyEntry, hist: HistClassifyEntry},
}

// kindOf returns the table row of cat, nil when it has none.
func kindOf(cat string) *spanKind {
	for i := range spanKinds {
		if spanKinds[i].cat == cat {
			return &spanKinds[i]
		}
	}
	return nil
}

// emit sends one of the kind's lifecycle events through s.
func (k *spanKind) emit(s *Shard, typ, name string, ns int64) {
	if typ == "" {
		return
	}
	e := Event{Type: typ, DurNS: ns}
	if k.phase {
		e.Phase = name
	}
	s.Event(e)
}

// ActiveSpan is a started span: a small value, so starting and ending
// spans is allocation-free; the zero ActiveSpan is a no-op. idx indexes
// the shard's span buffer (-1 when untraced), rseq is the flight-ring
// token (0 when unarmed).
type ActiveSpan struct {
	s     *Shard
	k     *spanKind
	name  string
	start int64
	idx   int
	rseq  uint64
}

// Span starts a span of category cat on this shard. With nothing to feed
// (or a nil shard) it returns the zero ActiveSpan without reading the
// clock, so hot loops may call it unconditionally.
func (s *Shard) Span(cat, name string) ActiveSpan {
	if s == nil {
		return ActiveSpan{}
	}
	k := kindOf(cat)
	if k == nil && s.tr == nil && s.ring == nil {
		return ActiveSpan{}
	}
	a := ActiveSpan{s: s, k: k, name: name, start: s.now(), idx: -1}
	if s.tr != nil {
		s.spans = append(s.spans, Span{Cat: cat, Name: name, Start: a.start})
		a.idx = len(s.spans) - 1
		s.open++
	}
	if s.ring != nil {
		a.rseq = s.ring.push(cat, name, a.start)
	}
	if k != nil {
		k.emit(s, k.startEv, name, 0)
	}
	return a
}

// End closes the span and feeds every sink its category records into.
func (a ActiveSpan) End() {
	s := a.s
	if s == nil {
		return
	}
	now := s.now()
	if a.idx >= 0 {
		s.spans[a.idx].Dur = now - a.start
		if s.open--; s.open == 0 {
			s.flushSpans()
		}
	}
	if a.rseq != 0 {
		s.ring.end(a.rseq, now)
	}
	k := a.k
	if k == nil {
		return
	}
	ns := now - a.start
	if k.phase {
		s.col.endPhase(a.name, ns, s.tr != nil)
	}
	if k.jobs != "" {
		s.counts[k.jobs]++
		s.counts[k.busy] += ns
	}
	if k.hist != "" {
		s.Observe(k.hist, ns)
	}
	k.emit(s, k.endEv, a.name, ns)
}

// Tracer owns the merged span timeline of one analysis run. All methods
// are safe for concurrent use.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64 // next worker track id (0 is the coordinator)
	spans []Span
}

// NewTracer returns an empty tracer; its clock epoch starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now(), next: 1} }

// allocTID reserves a fresh worker track.
func (t *Tracer) allocTID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	return id
}

// flush merges a shard's span buffer into the tracer on track tid.
func (t *Tracer) flush(tid int64, spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range spans {
		sp.TID = tid
		t.spans = append(t.spans, sp)
	}
}

// Spans returns a copy of the recorded spans, sorted by (start, track,
// name) so output is stable for a fixed set of measurements.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].TID != out[j].TID {
			return out[i].TID < out[j].TID
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TraceEvent is one Chrome trace-event record. Only the subset of the
// format the pipeline emits is modeled: complete events ("X") for spans
// and metadata events ("M") naming processes and threads.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace is a Chrome trace-event document (the JSON object form, which
// Perfetto and chrome://tracing both load).
type Trace struct {
	Events          []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// Merge appends o's events (with their pids) into t — used to combine
// per-app traces of a corpus run into one document with one process per
// app.
func (t *Trace) Merge(o *Trace) {
	if o == nil {
		return
	}
	t.Events = append(t.Events, o.Events...)
	if t.DisplayTimeUnit == "" {
		t.DisplayTimeUnit = o.DisplayTimeUnit
	}
}

// JSON renders the document as indented Chrome trace-event JSON.
func (t *Trace) JSON() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Export freezes the tracer into a Chrome trace-event document under the
// given process id and name. Track 0 renders as "coordinator"; worker
// shards keep their allocation-order track numbers.
func (t *Tracer) Export(pid int64, process string) *Trace {
	spans := t.Spans()
	out := &Trace{DisplayTimeUnit: "ms"}
	out.Events = append(out.Events, TraceEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": process},
	})
	tids := map[int64]bool{}
	for _, sp := range spans {
		tids[sp.TID] = true
	}
	order := make([]int64, 0, len(tids))
	for tid := range tids {
		order = append(order, tid)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, tid := range order {
		name := "coordinator"
		if tid != 0 {
			name = fmt.Sprintf("worker-%d", tid)
		}
		out.Events = append(out.Events, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, sp := range spans {
		out.Events = append(out.Events, TraceEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: float64(sp.Start) / 1e3, Dur: float64(sp.Dur) / 1e3,
			PID: pid, TID: sp.TID,
		})
	}
	return out
}
