// Package obs is the pipeline observability layer: spans, monotonic
// counters, gauges and latency histograms threaded through the
// Extractocol pipeline. The evaluation (§5, Table 2) reports per-app
// analysis time; this package breaks that single number into per-phase
// durations and workload counters.
//
// Concurrency model: a Collector owns the merged view behind a mutex; hot
// paths (taint worklists, pool workers) never touch it. Each goroutine
// owns an unsynchronized Shard, drained into the collector after its pool
// joins — no locks or atomics on the hot path, and no per-increment
// allocation (map assignment of an existing key does not allocate).
package obs

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Phase names of the core.Analyze pipeline, in execution order.
const (
	PhaseValidate  = "validate"
	PhaseCallgraph = "callgraph"
	PhaseSlice     = "slice"
	PhasePairing   = "pairing"
	PhaseSigbuild  = "sigbuild"
	PhaseDedup     = "dedup"
	PhaseTxdep     = "txdep"
	// PhaseResultCache brackets persistent report-cache lookups and stores
	// (see internal/resultcache); it is the only phase a warm run records.
	PhaseResultCache = "resultcache"
)

// Counter names recorded by the pipeline.
const (
	// CtrDPSites is the number of distinct demarcation point sites found.
	CtrDPSites = "dp_sites"
	// CtrSlicesBackward / CtrSlicesForward count computed request and
	// response slices.
	CtrSlicesBackward = "slices_backward"
	CtrSlicesForward  = "slices_forward"
	// CtrTaintFacts counts worklist facts processed by the taint engine;
	// CtrTaintStmts counts statements added to slices.
	CtrTaintFacts = "taint_facts"
	CtrTaintStmts = "taint_stmts"
	// CtrSliceJobs counts (entry point, DP site) extraction jobs run by the
	// slice worker pool; CtrSliceBusyNS accumulates worker busy time (the
	// numerator of pool utilization).
	CtrSliceJobs   = "slice_jobs"
	CtrSliceBusyNS = "slice_busy_ns"
	// Analysis-cache hit/miss counters: memoized per-entry-point
	// reachability, per-method type inference, and per-(method, register)
	// taint transfer summaries (see callgraph and taint).
	CtrCacheReachableHits    = "cache_reachable_hits"
	CtrCacheReachableMisses  = "cache_reachable_misses"
	CtrCacheInferTypesHits   = "cache_infertypes_hits"
	CtrCacheInferTypesMisses = "cache_infertypes_misses"
	CtrCacheSummaryHits      = "cache_summaries_hits"
	CtrCacheSummaryMisses    = "cache_summaries_misses"
	// Persistent report-cache counters (internal/resultcache): whole-report
	// hits and misses keyed by (binary hash, options fingerprint), entries
	// written back after cold runs, and entries found but unusable
	// (corrupt, truncated, wrong format version).
	CtrCacheReportHits    = "cache_report_hits"
	CtrCacheReportMisses  = "cache_report_misses"
	CtrCacheReportWrites  = "cache_report_writes"
	CtrCacheReportInvalid = "cache_report_invalid"
	// Report-cache contention gauges, drained from the shared cache after
	// each Get/Put: nanoseconds spent blocked on per-key locks, contended
	// same-key acquisitions, and atomic-install rename retries. All zero
	// unless parallel workers actually race on the cache.
	CtrCacheLockWaitNS     = "cache_lock_wait_ns"
	CtrCacheKeyRaces       = "cache_key_races"
	CtrCacheInstallRetries = "cache_install_retries"
	// CtrPairFlowChecks counts information-flow pairing verifications run.
	CtrPairFlowChecks = "pairing_flow_checks"
	// CtrSigbuildJobs counts signature-extraction jobs executed by the
	// worker pool; CtrSigbuildBusyNS accumulates the time workers spent on
	// jobs (the numerator of pool utilization). CtrSigbuildMethods counts
	// methods abstractly interpreted. Scoped/errored jobs are broken out.
	CtrSigbuildJobs    = "sigbuild_jobs"
	CtrSigbuildBusyNS  = "sigbuild_busy_ns"
	CtrSigbuildMethods = "sigbuild_methods_evaluated"
	CtrSigbuildScoped  = "sigbuild_scoped_out"
	CtrSigbuildErrors  = "sigbuild_errors"
	// CtrTransactions / CtrDedupFolded count deduplicated output
	// transactions and the duplicates folded into them.
	CtrTransactions = "transactions"
	CtrDedupFolded  = "dedup_folded"
	// CtrTxdepCarriers / CtrTxdepEdges count carrier heap locations indexed
	// and dependency edges inferred.
	CtrTxdepCarriers = "txdep_carriers"
	CtrTxdepEdges    = "txdep_edges"
	// Degradation counters (see internal/budget): CtrDiagnostics totals all
	// diagnostics on the report, broken out into recovered worker panics,
	// budget-truncated work, and jobs skipped at an exhausted boundary.
	// Unbudgeted, fault-free runs record none of these.
	CtrDiagnostics     = "diagnostics"
	CtrPanicsRecovered = "panics_recovered"
	CtrBudgetExceeded  = "budget_exceeded"
	CtrBudgetSkipped   = "budget_jobs_skipped"
)

// Gauge names.
const (
	// GaugeSigbuildWorkers is the size of the sigbuild worker pool.
	GaugeSigbuildWorkers = "sigbuild_workers"
	// GaugeSigbuildUtilization is total worker busy time divided by
	// (workers × fan-out wall time), in [0, 1].
	GaugeSigbuildUtilization = "sigbuild_worker_utilization"
	// GaugeSliceWorkers / GaugeSliceUtilization are the analogous pool
	// metrics for the slice-extraction fan-out.
	GaugeSliceWorkers     = "slice_workers"
	GaugeSliceUtilization = "slice_worker_utilization"
)

// Collector accumulates phases, counters and gauges for one analysis run.
// Counter, gauge and histogram methods are safe for concurrent use; the
// span methods (Span, Phase, FlightDump) record on the collector's own
// coordinator shard and belong to the goroutine driving the pipeline. A
// nil *Collector is a no-op so callers may thread one through optionally.
type Collector struct {
	start time.Time

	// coord is the coordinator shard on tracer track 0: the run and the
	// phases record through it as jobs do on worker shards. Its tracer and
	// flight ring are inherited by every shard handed out afterwards.
	coord *Shard
	// ev/app stream lifecycle events to a log tagged with the app under
	// analysis (see events.go).
	ev  *EventLog
	app string

	mu       sync.Mutex
	order    []string
	phaseNS  map[string]int64
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Hist
}

// NewCollector returns an empty collector; its total clock starts now.
func NewCollector() *Collector {
	c := &Collector{
		start:    time.Now(),
		phaseNS:  map[string]int64{},
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*Hist{},
	}
	c.coord = &Shard{counts: map[string]int64{}, col: c, epoch: c.start}
	return c
}

// SetTracer attaches a span tracer before the pipeline starts: the run and
// phases land on track 0, shards created afterwards on worker tracks. A
// nil tracer (the default) is free.
func (c *Collector) SetTracer(tr *Tracer) {
	if c == nil || tr == nil {
		return
	}
	c.coord.tr, c.coord.epoch = tr, tr.epoch
}

// SetEvents attaches a structured event log: run and phase spans emit
// start/end events tagged with the given app name. A nil log (the
// default) is free.
func (c *Collector) SetEvents(l *EventLog, app string) {
	if c == nil {
		return
	}
	c.ev, c.app = l, app
}

// Event emits one event through the collector's log (no-op when none is
// attached), filling the App field when the caller left it empty.
func (c *Collector) Event(e Event) {
	if c == nil || c.ev == nil {
		return
	}
	if e.App == "" {
		e.App = c.app
	}
	c.ev.Emit(e)
}

// Span starts a span on the coordinator track (see Shard.Span).
func (c *Collector) Span(cat, name string) ActiveSpan {
	if c == nil {
		return ActiveSpan{}
	}
	return c.coord.Span(cat, name)
}

// Phase starts the named phase span and returns the function that ends
// it. Re-entering a phase name accumulates into the same entry.
func (c *Collector) Phase(name string) func() { return c.Span(CatPhase, name).End }

// endPhase feeds one finished phase span into the phase total and its
// histogram, plus the post-phase heap gauge when traced.
func (c *Collector) endPhase(name string, ns int64, traced bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.phaseNS[name]; !ok {
		c.order = append(c.order, name)
	}
	c.phaseNS[name] += ns
	c.mu.Unlock()
	c.Observe(HistPhasePrefix+name, ns)
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.Gauge(GaugeHeapAllocAfter+name, float64(ms.HeapAlloc))
	}
}

// Add increments the named counter by delta.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Gauge sets the named gauge.
func (c *Collector) Gauge(name string, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// Observe records one nanosecond measurement into the named histogram.
// Coordinator-path equivalent of Shard.Observe; takes the collector mutex.
func (c *Collector) Observe(name string, ns int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	histIn(c.hists, name).Observe(ns)
	c.mu.Unlock()
}

// histIn returns m's named histogram, creating it on first use.
func histIn(m map[string]*Hist, name string) *Hist {
	h := m[name]
	if h == nil {
		h = &Hist{}
		m[name] = h
	}
	return h
}

// NewShard returns a shard for exactly one goroutine until it is passed
// to Drain (nil for a nil collector). It inherits the coordinator's
// flight recorder and, when traced, gets its own tracer track.
func (c *Collector) NewShard() *Shard {
	if c == nil {
		return nil
	}
	co := c.coord
	s := &Shard{counts: map[string]int64{}, col: c, epoch: co.epoch}
	if co.tr != nil {
		s.tr, s.tid = co.tr, co.tr.allocTID()
	}
	if co.ring != nil {
		s.ring = &flightRing{}
	}
	return s
}

// Drain merges a shard's counts into the collector, flushes its span
// buffer, and resets the shard. Its owner must have stopped writing.
func (c *Collector) Drain(s *Shard) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	for k, v := range s.counts {
		c.counters[k] += v
	}
	for k, sh := range s.hists {
		histIn(c.hists, k).merge(sh)
	}
	c.mu.Unlock()
	s.counts = map[string]int64{}
	s.hists = nil
	s.flushSpans()
}

// Shard is a single-goroutine counter and span buffer: no locks, no
// atomics. A nil *Shard is a no-op, so instrumented code never needs to
// branch on configuration.
type Shard struct {
	counts map[string]int64

	// hists holds the shard's latency histograms, allocated lazily on the
	// first Observe of each name; steady-state Observe is map-lookup plus
	// Hist.Observe, with no allocation.
	hists map[string]*Hist

	// col is the collector that handed the shard out (nil for standalone
	// shards): phase totals and events go there. epoch is the zero of the
	// span clock, the tracer's epoch when traced.
	col   *Collector
	epoch time.Time

	// tr/tid bind the shard to a tracer track; nil tr (the default for
	// standalone shards and untraced collectors) keeps spans off the
	// timeline. open counts traced spans not yet ended: the buffer flushes
	// to the tracer when the outermost one ends.
	tr    *Tracer
	tid   int64
	spans []Span
	open  int

	// ring, when armed via Collector.EnableFlight, keeps the newest
	// flightDepth spans for post-mortem dumps (see flight.go).
	ring *flightRing
}

// Event emits one event through the log of the collector that handed the
// shard out (no-op for standalone shards or when no log is attached).
func (s *Shard) Event(e Event) {
	if s != nil {
		s.col.Event(e)
	}
}

// now reads the shard's span clock in nanoseconds since its epoch.
func (s *Shard) now() int64 { return time.Since(s.epoch).Nanoseconds() }

// flushSpans moves the shard's span buffer into its tracer (no-op when
// untraced). Spans still open clamp to zero duration.
func (s *Shard) flushSpans() {
	if s == nil || s.tr == nil || len(s.spans) == 0 {
		return
	}
	s.tr.flush(s.tid, s.spans)
	s.spans, s.open = s.spans[:0], 0
}

// NewShard returns a standalone shard not bound to a collector.
func NewShard() *Shard { return &Shard{counts: map[string]int64{}, epoch: time.Now()} }

// Add increments the named counter by delta.
func (s *Shard) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.counts[name] += delta
}

// Observe records one nanosecond measurement into the shard's named
// histogram. Unsynchronized like Add: only the owning goroutine may call
// it. After the first observation of a name, subsequent ones allocate
// nothing (pinned by TestHistogramRecordZeroAlloc and
// BenchmarkHistogramRecord).
func (s *Shard) Observe(name string, ns int64) {
	if s == nil {
		return
	}
	if s.hists == nil {
		s.hists = map[string]*Hist{}
	}
	histIn(s.hists, name).Observe(ns)
}

// PhaseProfile is one timed pipeline stage.
type PhaseProfile struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// Profile is an immutable snapshot of a collector: the per-phase breakdown
// plus all counters and gauges. It is embedded in core.Report and rendered
// by the report package and the -profile CLI flags.
type Profile struct {
	TotalNS  int64                    `json:"total_ns"`
	Phases   []PhaseProfile           `json:"phases"`
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]float64       `json:"gauges,omitempty"`
	Hists    map[string]*HistSnapshot `json:"hists,omitempty"`
}

// Snapshot freezes the collector into a Profile. Phases appear in first-
// start order; counters and gauges are copied.
func (c *Collector) Snapshot() *Profile {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := &Profile{TotalNS: time.Since(c.start).Nanoseconds()}
	for _, name := range c.order {
		p.Phases = append(p.Phases, PhaseProfile{Name: name, DurationNS: c.phaseNS[name]})
	}
	if len(c.counters) > 0 {
		p.Counters = make(map[string]int64, len(c.counters))
		for k, v := range c.counters {
			p.Counters[k] = v
		}
	}
	if len(c.gauges) > 0 {
		p.Gauges = make(map[string]float64, len(c.gauges))
		for k, v := range c.gauges {
			p.Gauges[k] = v
		}
	}
	if len(c.hists) > 0 {
		p.Hists = make(map[string]*HistSnapshot, len(c.hists))
		for k, h := range c.hists {
			p.Hists[k] = h.snapshot()
		}
	}
	return p
}

// Phase returns the recorded duration of the named phase (0 if absent).
func (p *Profile) Phase(name string) time.Duration {
	if p == nil {
		return 0
	}
	for _, ph := range p.Phases {
		if ph.Name == name {
			return time.Duration(ph.DurationNS)
		}
	}
	return 0
}

// Counter returns the recorded value of the named counter (0 if absent).
func (p *Profile) Counter(name string) int64 {
	if p == nil {
		return 0
	}
	return p.Counters[name]
}

// PhaseSum returns the sum of all phase durations.
func (p *Profile) PhaseSum() time.Duration {
	if p == nil {
		return 0
	}
	var ns int64
	for _, ph := range p.Phases {
		ns += ph.DurationNS
	}
	return time.Duration(ns)
}

// Hist returns the named histogram snapshot (nil if absent).
func (p *Profile) Hist(name string) *HistSnapshot {
	if p == nil {
		return nil
	}
	return p.Hists[name]
}

// HistNames returns all histogram names, sorted.
func (p *Profile) HistNames() []string {
	if p == nil {
		return nil
	}
	out := make([]string, 0, len(p.Hists))
	for k := range p.Hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CounterNames returns all counter names, sorted.
func (p *Profile) CounterNames() []string {
	if p == nil {
		return nil
	}
	out := make([]string, 0, len(p.Counters))
	for k := range p.Counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge accumulates o into p: phase durations and counters add, gauges
// average weighted by total time, totals add. Used to aggregate per-app
// profiles into a corpus-wide view.
func (p *Profile) Merge(o *Profile) {
	if p == nil || o == nil {
		return
	}
	for _, ph := range o.Phases {
		found := false
		for i := range p.Phases {
			if p.Phases[i].Name == ph.Name {
				p.Phases[i].DurationNS += ph.DurationNS
				found = true
				break
			}
		}
		if !found {
			p.Phases = append(p.Phases, ph)
		}
	}
	for k, v := range o.Counters {
		if p.Counters == nil {
			p.Counters = map[string]int64{}
		}
		p.Counters[k] += v
	}
	for k, v := range o.Gauges {
		if p.Gauges == nil {
			p.Gauges = map[string]float64{}
		}
		if pt, ot := float64(p.TotalNS), float64(o.TotalNS); pt+ot > 0 {
			p.Gauges[k] = (p.Gauges[k]*pt + v*ot) / (pt + ot)
		} else {
			p.Gauges[k] = v
		}
	}
	for k, oh := range o.Hists {
		if p.Hists == nil {
			p.Hists = map[string]*HistSnapshot{}
		}
		h := p.Hists[k]
		if h == nil {
			h = &HistSnapshot{}
			p.Hists[k] = h
		}
		h.Merge(oh)
	}
	p.TotalNS += o.TotalNS
}
