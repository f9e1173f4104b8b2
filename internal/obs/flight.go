// Flight recorder: a bounded ring of the most recent span records per
// worker, kept even when full tracing is off, so that when the budget
// layer recovers a panic or a deadline fires, the diagnostic can say what
// the worker was doing in its last moments. Like the counter shards the
// ring is unsynchronized and owned by one goroutine — recording is an
// index increment and an array store, no locks and no allocation — and it
// is only read from that same goroutine (the worker's own recover handler)
// or after the pool has quiesced.
package obs

import "fmt"

// flightDepth is the ring capacity: the newest flightDepth span records
// survive. 64 covers a panicking job's recent history (job span + nested
// taint fixpoints) without measurable memory cost per worker.
const flightDepth = 64

// flightRing is the fixed-capacity record buffer. seq counts pushes ever;
// the live window is [seq-flightDepth, seq). Records are spans on the
// owning shard's clock whose Dur stays -1 until they end, so a dump
// distinguishes in-flight work (the usual suspect) from completed work.
type flightRing struct {
	seq  uint64
	recs [flightDepth]Span
}

// push records a span start and returns its 1-based token for end.
func (r *flightRing) push(cat, name string, start int64) uint64 {
	r.recs[r.seq%flightDepth] = Span{Cat: cat, Name: name, Start: start, Dur: -1}
	r.seq++
	return r.seq
}

// end closes the span with the given token, unless the ring has already
// wrapped past its slot.
func (r *flightRing) end(tok uint64, end int64) {
	if tok == 0 || r.seq >= tok+flightDepth {
		return
	}
	rec := &r.recs[(tok-1)%flightDepth]
	rec.Dur = end - rec.Start
}

// dump renders the live window oldest-first, one line per record. Spans
// still in flight render with "…" in place of an end time.
func (r *flightRing) dump() []string {
	if r == nil || r.seq == 0 {
		return nil
	}
	first := uint64(0)
	if r.seq > flightDepth {
		first = r.seq - flightDepth
	}
	out := make([]string, 0, r.seq-first)
	for i := first; i < r.seq; i++ {
		rec := r.recs[i%flightDepth]
		if rec.Dur >= 0 {
			out = append(out, fmt.Sprintf("%s %s %dns+%dns", rec.Cat, rec.Name, rec.Start, rec.Dur))
		} else {
			out = append(out, fmt.Sprintf("%s %s %dns+…", rec.Cat, rec.Name, rec.Start))
		}
	}
	return out
}

// FlightDump returns the shard's recent span history, oldest first, or nil
// when the flight recorder is not armed. Call only from the shard's owning
// goroutine (e.g. inside a worker's recover handler) or after it has
// quiesced.
func (s *Shard) FlightDump() []string {
	if s == nil {
		return nil
	}
	return s.ring.dump()
}

// EnableFlight arms the flight recorder: the collector's coordinator shard
// and every shard created afterwards keep a flightDepth-deep ring of
// recent spans (run and phases on the coordinator, jobs and fixpoints on
// workers). Off by default — dump contents depend on worker scheduling,
// so recorded history must never leak into deterministic outputs unless
// asked for. Call before the pipeline starts.
func (c *Collector) EnableFlight() {
	if c != nil && c.coord.ring == nil {
		c.coord.ring = &flightRing{}
	}
}

// FlightEnabled reports whether EnableFlight has been called.
func (c *Collector) FlightEnabled() bool { return c != nil && c.coord.ring != nil }

// FlightDump returns the coordinator shard's recent history (run and
// phase spans), oldest first.
func (c *Collector) FlightDump() []string {
	if c == nil {
		return nil
	}
	return c.coord.FlightDump()
}
