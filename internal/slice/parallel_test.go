package slice

import (
	"reflect"
	"testing"

	"extractocol/internal/callgraph"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/semmodel"
	"extractocol/internal/taint"
)

// Parallel extraction must be invisible in the output: same transactions,
// same IDs, same slices, regardless of worker count.
func TestFindParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog func() *ir.Program
	}{
		{"twoHandler", twoHandlerApp},
		{"sharedDP", sharedDPApp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog()
			model := semmodel.Default()
			cg := callgraph.Build(p, model)
			serial := Find(p, model, cg, Options{MaxAsyncHops: 1, Workers: 1})
			parallel := Find(p, model, cg, Options{MaxAsyncHops: 1, Workers: 4})
			if len(serial) == 0 {
				t.Fatal("no transactions found")
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("parallel Find differs from serial:\nserial:   %+v\nparallel: %+v",
					serial, parallel)
			}
		})
	}
}

// Find must run without any stats plumbing: a nil Col.
func TestFindNilStats(t *testing.T) {
	p := twoHandlerApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	txs := Find(p, model, cg, Options{MaxAsyncHops: 1})
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2", len(txs))
	}
}

// With a Collector attached, the pool reports job/busy counters and the
// worker gauges, whether it runs serially or across several workers.
func TestFindPoolObservability(t *testing.T) {
	p := twoHandlerApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)

	col := obs.NewCollector()
	txs := Find(p, model, cg, Options{MaxAsyncHops: 1, Col: col})
	prof := col.Snapshot()
	if got := prof.Counter(obs.CtrSliceJobs); got != int64(len(txs)) {
		t.Errorf("slice_jobs = %d, want %d", got, len(txs))
	}
	if prof.Counter(obs.CtrSlicesBackward) == 0 {
		t.Error("no backward slices counted through the collector")
	}
	if w := prof.Gauges[obs.GaugeSliceWorkers]; w < 1 {
		t.Errorf("slice_workers gauge = %v, want >= 1", w)
	}
	if u := prof.Gauges[obs.GaugeSliceUtilization]; u < 0 || u > 1.05 {
		t.Errorf("slice_worker_utilization = %v, want within [0, 1.05]", u)
	}

	col = obs.NewCollector()
	Find(p, model, cg, Options{MaxAsyncHops: 1, Col: col, Workers: 3})
	prof = col.Snapshot()
	if prof.Counter(obs.CtrSliceJobs) == 0 {
		t.Error("worker shards were not drained into the collector")
	}
	if prof.Counter(obs.CtrSlicesBackward) == 0 {
		t.Error("no backward slices counted through the worker shards")
	}
}

// A shared summary cache passed through Options must not change results.
func TestFindSharedSummaries(t *testing.T) {
	p := sharedDPApp()
	model := semmodel.Default()
	cg := callgraph.Build(p, model)
	plain := Find(p, model, cg, Options{MaxAsyncHops: 1, Workers: 1})
	sums := taint.NewSummaryCache()
	shared := Find(p, model, cg, Options{MaxAsyncHops: 1, Workers: 4, Summaries: sums})
	if !reflect.DeepEqual(plain, shared) {
		t.Error("shared summary cache changed Find output")
	}
}
