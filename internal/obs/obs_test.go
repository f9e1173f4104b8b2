package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseAccumulates(t *testing.T) {
	c := NewCollector()
	end := c.Phase("slice")
	time.Sleep(time.Millisecond)
	end()
	end = c.Phase("slice")
	end()
	c.Phase("txdep")()

	p := c.Snapshot()
	if len(p.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (re-entry must accumulate)", len(p.Phases))
	}
	if p.Phases[0].Name != "slice" || p.Phases[1].Name != "txdep" {
		t.Fatalf("phase order = %v, want first-start order", p.Phases)
	}
	if p.Phase("slice") < time.Millisecond {
		t.Fatalf("slice phase = %v, want >= 1ms", p.Phase("slice"))
	}
	if p.Phase("missing") != 0 {
		t.Fatal("missing phase must read as 0")
	}
}

func TestCountersAndGauges(t *testing.T) {
	c := NewCollector()
	c.Add("a", 2)
	c.Add("a", 3)
	c.Gauge("g", 0.5)
	p := c.Snapshot()
	if p.Counter("a") != 5 {
		t.Fatalf("counter a = %d, want 5", p.Counter("a"))
	}
	if p.Gauges["g"] != 0.5 {
		t.Fatalf("gauge g = %v, want 0.5", p.Gauges["g"])
	}
	if names := p.CounterNames(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("counter names = %v", names)
	}
}

func TestShardDrain(t *testing.T) {
	c := NewCollector()
	s := c.NewShard()
	s.Add("x", 7)
	if got := c.Snapshot().Counter("x"); got != 0 {
		t.Fatalf("undrained shard leaked %d into the collector", got)
	}
	c.Drain(s)
	c.Drain(s) // second drain is a no-op: the shard was reset
	if got := c.Snapshot().Counter("x"); got != 7 {
		t.Fatalf("drained counter = %d, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	c.Phase("p")()
	c.Add("x", 1)
	c.Gauge("g", 1)
	c.Drain(nil)
	if c.Snapshot() != nil {
		t.Fatal("nil collector must snapshot to nil")
	}

	var s *Shard
	s.Add("x", 1)
	s.Span(CatSliceJob, "job").End()
	if c.NewShard() != nil || c.Span(CatRun, "app") != (ActiveSpan{}) {
		t.Fatal("nil collector must hand out nil shards and zero spans")
	}

	var p *Profile
	if p.Phase("x") != 0 || p.Counter("x") != 0 || p.PhaseSum() != 0 || p.CounterNames() != nil {
		t.Fatal("nil profile accessors must be zero")
	}
	p.Merge(&Profile{TotalNS: 1}) // must not panic
}

// TestConcurrentShards exercises the worker-pool pattern under the race
// detector: N goroutines each own a shard, the coordinator drains after
// the pool joins, and direct Add/Gauge calls race against them safely.
func TestConcurrentShards(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 8, 1000
	shards := make([]*Shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shard := c.NewShard()
		shards[w] = shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shard.Add("jobs", 1)
			}
			c.Add("direct", 1) // collector mutations are themselves safe
		}()
	}
	wg.Wait()
	for _, s := range shards {
		c.Drain(s)
	}
	p := c.Snapshot()
	if p.Counter("jobs") != workers*perWorker {
		t.Fatalf("jobs = %d, want %d", p.Counter("jobs"), workers*perWorker)
	}
	if p.Counter("direct") != workers {
		t.Fatalf("direct = %d, want %d", p.Counter("direct"), workers)
	}
}

func TestProfileMerge(t *testing.T) {
	a := &Profile{
		TotalNS:  100,
		Phases:   []PhaseProfile{{Name: "slice", DurationNS: 60}, {Name: "txdep", DurationNS: 10}},
		Counters: map[string]int64{"x": 1},
		Gauges:   map[string]float64{"u": 1.0},
	}
	b := &Profile{
		TotalNS:  300,
		Phases:   []PhaseProfile{{Name: "slice", DurationNS: 200}, {Name: "dedup", DurationNS: 5}},
		Counters: map[string]int64{"x": 2, "y": 3},
		Gauges:   map[string]float64{"u": 0.5},
	}
	a.Merge(b)
	if a.TotalNS != 400 {
		t.Fatalf("total = %d", a.TotalNS)
	}
	if a.Phase("slice") != 260 || a.Phase("txdep") != 10 || a.Phase("dedup") != 5 {
		t.Fatalf("merged phases wrong: %+v", a.Phases)
	}
	if a.Counters["x"] != 3 || a.Counters["y"] != 3 {
		t.Fatalf("merged counters wrong: %v", a.Counters)
	}
	// Time-weighted gauge: (1.0*100 + 0.5*300) / 400 = 0.625.
	if got := a.Gauges["u"]; got < 0.624 || got > 0.626 {
		t.Fatalf("merged gauge = %v, want 0.625", got)
	}
}

func TestProfileJSONShape(t *testing.T) {
	c := NewCollector()
	c.Phase("validate")()
	c.Add("dp_sites", 3)
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Phases) != 1 || back.Phases[0].Name != "validate" || back.Counter("dp_sites") != 3 {
		t.Fatalf("round-trip mismatch: %s", data)
	}
}

// TestSpanEndFeedsCategorySinks pins the recording table: a job span's
// End feeds the job counter, busy time and per-job histogram; a phase
// span's End feeds the phase total, its histogram and the phase events;
// the run span emits the run events; other categories record nothing
// unless a tracer or flight ring is armed.
func TestSpanEndFeedsCategorySinks(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector()
	c.SetEvents(NewEventLog(&buf), "app")
	run := c.Span(CatRun, "app")
	c.Phase(PhaseSlice)()
	s := c.NewShard()
	for i := 0; i < 3; i++ {
		s.Span(CatSliceJob, "job").End()
	}
	if sp := s.Span(CatTaintBackward, "fix"); sp != (ActiveSpan{}) {
		t.Fatalf("untraced taint span = %+v, want the zero span", sp)
	}
	c.Drain(s)
	run.End()

	p := c.Snapshot()
	if got := p.Counter(CtrSliceJobs); got != 3 {
		t.Errorf("slice_jobs = %d, want 3", got)
	}
	if h := p.Hist(HistSliceJob); h == nil || h.Count != 3 || h.SumNS != p.Counter(CtrSliceBusyNS) {
		t.Errorf("slice_job hist = %+v, want count 3 summing to slice_busy_ns %d", h, p.Counter(CtrSliceBusyNS))
	}
	if h := p.Hist(HistPhasePrefix + PhaseSlice); h == nil || h.Count != 1 || h.SumNS != int64(p.Phase(PhaseSlice)) {
		t.Errorf("phase hist = %+v, want one observation of the phase total %d", h, p.Phase(PhaseSlice))
	}
	if len(p.Phases) != 1 {
		t.Errorf("phases = %+v, want only %q", p.Phases, PhaseSlice)
	}
	if err := c.ev.Close(); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		types = append(types, e.Type+":"+e.Phase)
	}
	want := []string{"run_start:", "phase_start:slice", "phase_end:slice", "run_end:"}
	if strings.Join(types, " ") != strings.Join(want, " ") {
		t.Errorf("events = %v, want %v", types, want)
	}
}

// TestSpanTracks checks that run and phase spans land on coordinator
// track 0 and job spans on their worker's track, each published once the
// shard's outermost span ends.
func TestSpanTracks(t *testing.T) {
	tr := NewTracer()
	c := NewCollector()
	c.SetTracer(tr)
	run := c.Span(CatRun, "app")
	end := c.Phase(PhaseSigbuild)
	s := c.NewShard()
	job := s.Span(CatSigbuildJob, "job")
	s.Span(CatTaintForward, "fix").End()
	job.End()
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("%d spans published after the job ended, want the job and its fixpoint", n)
	}
	end()
	run.End()
	tracks := map[string]int64{}
	for _, sp := range tr.Spans() {
		tracks[sp.Cat] = sp.TID
	}
	if len(tracks) != 4 || tracks[CatRun] != 0 || tracks[CatPhase] != 0 ||
		tracks[CatSigbuildJob] == 0 || tracks[CatTaintForward] != tracks[CatSigbuildJob] {
		t.Errorf("span tracks = %v", tracks)
	}
}

func TestFan(t *testing.T) {
	for _, tc := range []struct {
		name        string
		nilCol      bool
		cat         string
		n, workers  int
		serial      bool
		wantWorkers int
	}{
		{name: "parallel", cat: CatSigbuildJob, n: 50, workers: 4, wantWorkers: 4},
		{name: "clamped to jobs", cat: CatSigbuildJob, n: 2, workers: 8, wantWorkers: 2},
		{name: "serial", cat: CatSigbuildJob, n: 20, workers: 4, serial: true, wantWorkers: 1},
		{name: "no jobs", cat: CatSigbuildJob, n: 0, workers: 4},
		{name: "nil collector", nilCol: true, cat: CatSliceJob, n: 3, workers: 2, wantWorkers: 2},
		{name: "category without gauges", cat: CatClassifyEntry, n: 10, workers: 3, wantWorkers: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c *Collector
			if !tc.nilCol {
				c = NewCollector()
			}
			ran := make([]int, tc.n)
			last := -1
			got := c.Fan(tc.cat, tc.n, tc.workers, tc.serial, func(i int, s *Shard) {
				if tc.nilCol && s != nil {
					t.Errorf("job %d got a shard from a nil collector", i)
				}
				sp := s.Span(tc.cat, "job")
				defer sp.End()
				ran[i]++
				if tc.serial {
					if i != last+1 {
						t.Errorf("serial pool ran job %d after %d", i, last)
					}
					last = i
				}
			})
			if got != tc.wantWorkers {
				t.Errorf("Fan ran %d workers, want %d", got, tc.wantWorkers)
			}
			for i, n := range ran {
				if n != 1 {
					t.Errorf("job %d ran %d times", i, n)
				}
			}
			if tc.nilCol {
				return
			}
			p := c.Snapshot()
			k := kindOf(tc.cat)
			if tc.n > 0 {
				if h := p.Hist(k.hist); h == nil || h.Count != int64(tc.n) {
					t.Errorf("%s histogram = %+v, want %d observations", k.hist, h, tc.n)
				}
			}
			if k.workers == "" || tc.n == 0 {
				if len(p.Gauges) != 0 {
					t.Errorf("pool set gauges %v, want none", p.Gauges)
				}
				return
			}
			if got := p.Counter(k.jobs); got != int64(tc.n) {
				t.Errorf("%s = %d, want %d", k.jobs, got, tc.n)
			}
			if w := p.Gauges[k.workers]; w != float64(tc.wantWorkers) {
				t.Errorf("%s = %v, want %v", k.workers, w, tc.wantWorkers)
			}
			if u := p.Gauges[k.util]; u < 0 || u > 1 {
				t.Errorf("%s = %v, want within [0, 1]", k.util, u)
			}
		})
	}
}
