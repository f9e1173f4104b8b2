package main

import (
	"fmt"
	"runtime"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/sigvm"
	"extractocol/internal/trace"
)

// batchEntries is the size of one classify op: one app's labeled traffic.
const batchEntries = 2000

// classify matches labeled traffic against the paper apps' signatures with
// the compiled matcher VM. Reports and bundles are built in set-up, so
// matching does all the timed work and an analysis-layer change should
// leave this workload unchanged. About 40% of the entries are mutated
// near-misses, so both the accept and the reject paths run.
type classify struct {
	seed    uint64
	reps    []*core.Report
	bundles []*sigvm.Bundle
	batches [][]trace.Entry
	want    [][]int
}

type classifyOut struct{ verdicts []int }

// workers is the matcher fan-out: every usable CPU, never more than the
// host has.
func workers() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

func (w *classify) setup(tr *tracer) error {
	bins, err := encodeApps(corpus.Apps())
	if err != nil {
		return err
	}
	for i, bin := range bins {
		p, err := dex.Decode(bin)
		if err != nil {
			return err
		}
		rep, err := core.Analyze(p, core.NewOptions())
		if err != nil {
			return err
		}
		tr.begin("sigvm.compile")
		b := sigvm.Compile(rep)
		tr.end()
		labeled := trace.RandEntries(w.seed+uint64(i), rep, batchEntries)
		want := make([]int, len(labeled))
		for j, le := range labeled {
			want[j] = le.WantID
		}
		w.reps = append(w.reps, rep)
		w.bundles = append(w.bundles, b)
		w.batches = append(w.batches, trace.Entries(labeled))
		w.want = append(w.want, want)
	}
	return nil
}

func (w *classify) passLen() int    { return len(w.batches) }
func (w *classify) kind(int) string { return "batch" }
func (w *classify) units(i int) int { return len(w.batches[i]) }
func (w *classify) reset() error    { return nil }
func (w *classify) close()          {}

func (w *classify) inputs() inputStamp {
	d := newDigest()
	for i, b := range w.batches {
		for j, e := range b {
			d.str(e.Method, e.URL, e.ReqBody, e.RespType, e.RespBody, e.RouteID)
			d.int(e.Seq, e.Status, w.want[i][j])
			d.strMap(e.ReqHeaders)
		}
	}
	return inputStamp{Items: fmt.Sprintf("%d batches of %d entries", len(w.batches), batchEntries), SHA256: d.hex()}
}

func (w *classify) opts(i int) trace.ClassifyOptions {
	return trace.ClassifyOptions{VM: true, Bundle: w.bundles[i], Workers: workers()}
}

func (w *classify) run(i int, tr *tracer) (any, error) {
	tr.begin("trace.classify")
	res := trace.Classify(w.reps[i], w.batches[i], w.opts(i))
	tr.end()
	return classifyOut{res.Verdicts}, nil
}

// check compares every verdict with the entry's label, which RandEntries
// derives from the signatures' regular expressions, not from the matcher.
func (w *classify) check(i int, out any) error {
	got := out.(classifyOut).verdicts
	if len(got) != len(w.want[i]) {
		return fmt.Errorf("batch %d: %d verdicts for %d entries", i, len(got), len(w.want[i]))
	}
	for j, v := range got {
		if v != w.want[i][j] {
			return fmt.Errorf("batch %d entry %d: verdict %d, label %d", i, j, v, w.want[i][j])
		}
	}
	return nil
}

// attribute replays the batch once more to count its allocations, which
// would otherwise need a stop-the-world read inside the op.
func (w *classify) attribute(i int, out any, spans []span, lay *layers) error {
	matched := 0
	for _, v := range out.(classifyOut).verdicts {
		if v != 0 {
			matched++
		}
	}
	lay.count("trace.entries", float64(len(w.batches[i])))
	lay.count("trace.matched", float64(matched))
	lay.count("trace.classify_ns", float64(dur(spans, "trace.classify")))
	m0 := mallocs()
	trace.Classify(w.reps[i], w.batches[i], w.opts(i))
	lay.count("trace.classify_allocs", mallocs()-m0)
	return nil
}
