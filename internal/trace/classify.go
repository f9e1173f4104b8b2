package trace

import (
	"runtime"

	"extractocol/internal/core"
	"extractocol/internal/obs"
	"extractocol/internal/sigvm"
)

// ClassifyOptions configures Classify: backend selection plus the worker
// fan-out.
type ClassifyOptions struct {
	// VM matches with the compiled sigvm backend; false is the
	// interpretive oracle.
	VM bool
	// Bundle optionally reuses a compiled bundle (VM only; it must have
	// been compiled from the same report); nil compiles one from the
	// report.
	Bundle *sigvm.Bundle
	// Workers is the matcher fan-out: 0 means GOMAXPROCS, 1 runs serially.
	// The result is byte-identical at any width: entries are split into
	// contiguous chunks and partial results merge in chunk order.
	Workers int
	// Col, when non-nil, receives per-entry classification latencies
	// (obs.HistClassifyEntry, one obs.CatClassifyEntry span per entry)
	// through per-worker shards — the telemetry hook for cmd/classify's
	// -profile/-ops flags. Nil skips all clock reads.
	Col *obs.Collector
}

// SigHits is one signature's classification tally.
type SigHits struct {
	TxID   int    `json:"tx_id"`
	Method string `json:"method"`
	Hits   int    `json:"hits"`
}

// ClassifyResult is MatchReport's aggregate plus the per-entry and
// per-signature views a classifier needs: which transaction each entry
// resolved to, and how often each signature fired.
type ClassifyResult struct {
	MatchResult
	// PerSig tallies hits per signature, in report transaction order
	// (every transaction appears, hit or not).
	PerSig []SigHits
	// Verdicts holds, for every input entry in order, the transaction ID
	// of its best-matching signature; 0 when the entry was skipped
	// (status >= 400) or matched no signature.
	Verdicts []int
}

// chunkTally is one chunk's share of a classification.
type chunkTally struct {
	res     MatchResult
	matched map[int]bool
	failed  map[int]bool
	hits    map[int]int
}

// Classify streams entries through the selected matcher backend and
// returns the full classification: MatchReport's aggregate, per-entry
// verdicts, and per-signature hit tallies. The entries are fanned out
// over contiguous chunks on Collector.Fan — the compiled bundle is shared
// read-only, each chunk owns a Matcher — and the chunks merge in order,
// so the result is byte-identical at any width.
func Classify(rep *core.Report, entries []Entry, opt ClassifyOptions) *ClassifyResult {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (len(entries) + workers - 1) / workers
	chunks := 0
	if chunk > 0 {
		chunks = (len(entries) + chunk - 1) / chunk
	}

	// One bundle compilation (or regex compilation, for the oracle) shared
	// by every chunk; only Matcher scratch is per-chunk. The interpretive
	// backend is stateless per entry (compiled regexps are safe for
	// concurrent use), so chunks share it.
	var bundle *sigvm.Bundle
	var interp *interpBackend
	if opt.VM {
		bundle = opt.Bundle
		if bundle == nil {
			bundle = sigvm.Compile(rep)
		}
	} else {
		interp = newInterpBackend(rep)
	}

	res := &ClassifyResult{Verdicts: make([]int, len(entries))}
	parts := make([]chunkTally, chunks)
	opt.Col.Fan(obs.CatClassifyEntry, chunks, chunks, false, func(w int, stats *obs.Shard) {
		lo := w * chunk
		hi := min(lo+chunk, len(entries))
		var b sigBackend = interp
		if opt.VM {
			b = &vmBackend{b: bundle, m: bundle.NewMatcher()}
		}
		p := &parts[w]
		p.matched, p.failed, p.hits = map[int]bool{}, map[int]bool{}, map[int]int{}
		matchChunk(b, entries[lo:hi], p, res.Verdicts[lo:hi], stats)
	})

	// Merge in chunk order: counters and byte stats are commutative sums,
	// Unmatched concatenates back into entry order.
	sigMatched := map[int]bool{}
	sigFailed := map[int]bool{}
	hits := map[int]int{}
	for w := range parts {
		p := &parts[w]
		res.TraceEntries += p.res.TraceEntries
		res.MatchedEntries += p.res.MatchedEntries
		res.Unmatched = append(res.Unmatched, p.res.Unmatched...)
		res.URIStats.Add(p.res.URIStats)
		res.ReqStats.Add(p.res.ReqStats)
		res.RespStats.Add(p.res.RespStats)
		for id := range p.matched {
			sigMatched[id] = true
		}
		for id := range p.failed {
			sigFailed[id] = true
		}
		for id, n := range p.hits {
			hits[id] += n
		}
	}
	res.SigsWithTraffic = len(sigMatched)
	for id := range sigMatched {
		if !sigFailed[id] {
			res.SigsValid++
		}
	}

	for _, tx := range rep.Transactions {
		res.PerSig = append(res.PerSig, SigHits{
			TxID:   tx.ID,
			Method: tx.Request.Method,
			Hits:   hits[tx.ID],
		})
	}
	return res
}
