package main

import (
	"runtime"
	"sync"
	"time"

	"extractocol/internal/callgraph"
	"extractocol/internal/core"
	"extractocol/internal/dex"
	"extractocol/internal/ir"
	"extractocol/internal/obs"
	"extractocol/internal/pairing"
	"extractocol/internal/semmodel"
	"extractocol/internal/sigbuild"
	"extractocol/internal/slice"
	"extractocol/internal/taint"
	"extractocol/internal/txdep"
)

// replayAnalysis is the attribution pass for one analyzed app. On a fresh
// decode of bin it repeats, in order, the layer calls core.Analyze makes
// with default options, timing each from outside. analyzeNS is the op's own
// core.Analyze span minus its cache calls; the share of it the replayed
// calls do not cover is dedup/fold plus orchestration. rep is the op's report: txdep.Infer runs
// on its deduplicated transactions, exactly as core hands them over.
func replayAnalysis(bin []byte, rep *core.Report, analyzeNS int64, lay *layers) error {
	opts := core.NewOptions()
	timed := func(name string, f func()) int64 {
		t0 := time.Now()
		f()
		ns := time.Since(t0).Nanoseconds()
		lay.add(name, float64(ns))
		return ns
	}
	counted := func(name string, f func()) int64 {
		m0 := mallocs()
		ns := timed(name, f)
		lay.add(name+"_allocs", mallocs()-m0)
		return ns
	}

	decoded, err := decodeAllocs(bin, lay)
	if err != nil {
		return err
	}
	model := semmodel.Default()

	var attributed int64
	var verr error
	attributed += timed("ir.validate", func() { verr = decoded.Validate() })
	if verr != nil {
		return verr
	}
	var cg *callgraph.Graph
	attributed += counted("callgraph.build", func() { cg = callgraph.Build(decoded, model) })

	sums := taint.NewSummaryCache()
	var txs []*slice.Transaction
	attributed += counted("slice.find", func() {
		txs, _ = slice.FindBudgeted(decoded, model, cg, slice.Options{
			MaxAsyncHops:   opts.MaxAsyncHops,
			IncludeIntents: opts.ModelIntents,
			Workers:        opts.Workers,
			Summaries:      sums,
		})
	})
	lay.add("slice.transactions", float64(len(txs)))

	var pairs []pairing.Pair
	pairNS := timed("pairing.analyze", func() { pairs = pairing.Analyze(txs) })
	pairNS += timed("pairing.verify", func() { pairing.VerifyFlow(decoded, model, cg, pairs, nil, sums) })
	lay.add("pairing.phase", float64(pairNS))
	attributed += pairNS
	confirmed := 0
	for _, pr := range pairs {
		if pr.FlowConfirmed {
			confirmed++
		}
	}
	lay.add("pairing.pairs", float64(confirmed))

	col := obs.NewCollector()
	sums.DrainCounters(col)
	prof := col.Snapshot()
	lay.count("taint.summary_hits", float64(prof.Counter(obs.CtrCacheSummaryHits)))
	lay.count("taint.summary_lookups", float64(prof.Counter(obs.CtrCacheSummaryHits)+prof.Counter(obs.CtrCacheSummaryMisses)))

	attributed += replaySigbuild(decoded, model, cg, txs, lay)

	dtxs := make([]*txdep.Tx, 0, len(rep.Transactions))
	for _, t := range rep.Transactions {
		dtxs = append(dtxs, &txdep.Tx{ID: t.ID, DPID: t.DP, Req: t.Request, Resp: t.Response})
	}
	var deps []txdep.Dep
	attributed += timed("txdep.infer", func() { deps = txdep.Infer(dtxs) })
	lay.add("txdep.deps", float64(len(deps)))

	lay.count("core.analyze_ns", float64(analyzeNS))
	lay.count("core.attributed_ns", float64(attributed))
	return nil
}

// decodeAllocs decodes bin afresh and files the allocations it took.
func decodeAllocs(bin []byte, lay *layers) (*ir.Program, error) {
	m0 := mallocs()
	p, err := dex.Decode(bin)
	lay.add("dex.decode_allocs", mallocs()-m0)
	return p, err
}

// replaySigbuild runs sigbuild.BuildTraced once per transaction over the
// same worker fan-out core uses (GOMAXPROCS workers, at most one per
// transaction), recording each job's time, and returns the fan-out's wall
// time, which is what the phase costs the op.
func replaySigbuild(p *ir.Program, model *semmodel.Model, cg *callgraph.Graph,
	txs []*slice.Transaction, lay *layers) int64 {

	workers := min(runtime.GOMAXPROCS(0), len(txs))
	jobNS := make([]int64, len(txs))
	methods := make([]int, len(txs))
	failed := make([]bool, len(txs))
	job := func(i int) {
		t0 := time.Now()
		_, _, info, err := sigbuild.BuildTraced(p, model, cg, txs[i], nil, nil)
		jobNS[i] = time.Since(t0).Nanoseconds()
		methods[i] = info.MethodsEvaluated
		failed[i] = err != nil
	}

	m0 := mallocs()
	t0 := time.Now()
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					job(i)
				}
			}()
		}
		for i := range txs {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i := range txs {
			job(i)
		}
	}
	wall := time.Since(t0).Nanoseconds()
	allocs := mallocs() - m0

	var busy int64
	nMethods, nFailed := 0, 0
	for i := range txs {
		lay.add("sigbuild.job", float64(jobNS[i]))
		busy += jobNS[i]
		nMethods += methods[i]
		if failed[i] {
			nFailed++
		}
	}
	lay.add("sigbuild.busy_ns", float64(busy))
	lay.add("sigbuild.methods_evaluated", float64(nMethods))
	lay.add("sigbuild.errors", float64(nFailed))
	lay.count("sigbuild.jobs", float64(len(txs)))
	lay.count("sigbuild.allocs", allocs)
	lay.add("sigbuild.wall", float64(wall))
	return wall
}
