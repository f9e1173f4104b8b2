package trace

import (
	"regexp"
	"time"

	"extractocol/internal/core"
	"extractocol/internal/obs"
	"extractocol/internal/siglang"
	"extractocol/internal/sigvm"
)

// MatchResult aggregates signature-versus-traffic validation (§5.1
// "signature validity" and Table 2 byte accounting).
type MatchResult struct {
	// TraceEntries is the number of successful trace exchanges considered.
	TraceEntries int
	// MatchedEntries is how many were matched by some signature.
	MatchedEntries int
	// Unmatched lists route IDs of trace entries no signature covered.
	Unmatched []string

	// SigsWithTraffic counts signatures for which traffic was observed;
	// SigsValid counts those whose every observed exchange matched.
	SigsWithTraffic int
	SigsValid       int

	// URIStats, ReqStats and RespStats accumulate matched-byte statistics
	// over URIs, request bodies/query strings, and response bodies.
	URIStats  siglang.ByteStats
	ReqStats  siglang.ByteStats
	RespStats siglang.ByteStats
}

// MatchOptions selects the matcher backend behind MatchReport. The zero
// value is the interpretive matcher — the equivalence oracle, kept exactly
// as shipped. VM switches to the compiled matcher (internal/sigvm); the two
// are held byte-identical by the matchvm differential axis in
// internal/evaluate and by FuzzSigVM.
type MatchOptions struct {
	// VM matches with the compiled sigvm backend instead of the
	// interpretive one.
	VM bool
	// Bundle optionally reuses an already-compiled bundle (it must have
	// been compiled from the same report). Nil compiles one on demand.
	Bundle *sigvm.Bundle
}

// sigBackend is what the shared verdict-aggregation loop needs from a
// matcher: per-signature identity (transaction ID, method, specificity)
// and the four matching primitives. Both backends implement it, so
// aggregation — best-match selection, validity bookkeeping, byte-stat
// accumulation — is equal by construction; the per-signature primitives
// are held equal by the differential and fuzz gates.
type sigBackend interface {
	NumSigs() int
	TxID(i int) int
	Method(i int) string
	SpecLen(i int) int
	MatchURI(i int, url string) bool
	URIStats(i int, url string) siglang.ByteStats
	MatchRequestBody(i int, body string) (bool, siglang.ByteStats)
	MatchResponseBody(i int, respType, body string) (bool, siglang.ByteStats)
}

// MatchReport validates an analysis report against a traffic trace with
// the interpretive matcher.
func MatchReport(rep *core.Report, entries []Entry) *MatchResult {
	return MatchReportOpts(rep, entries, MatchOptions{})
}

// MatchReportOpts validates an analysis report against a traffic trace
// with the backend selected by opt.
func MatchReportOpts(rep *core.Report, entries []Entry, opt MatchOptions) *MatchResult {
	b := newBackend(rep, opt)
	res := &MatchResult{}
	sigMatched := map[int]bool{}
	sigFailed := map[int]bool{}
	matchChunk(b, entries, res, sigMatched, sigFailed, nil, nil, nil)
	finishSigCounts(res, sigMatched, sigFailed)
	return res
}

func newBackend(rep *core.Report, opt MatchOptions) sigBackend {
	if opt.VM {
		bundle := opt.Bundle
		if bundle == nil {
			bundle = sigvm.Compile(rep)
		}
		return &vmBackend{m: bundle.NewMatcher(), b: bundle}
	}
	return newInterpBackend(rep)
}

// matchChunk runs the shared verdict loop over a slice of entries,
// accumulating into res and the per-signature maps. When hits/verdicts are
// non-nil it also counts per-signature hits (keyed by transaction ID) and
// records each entry's best-match transaction ID (0 = entry skipped or
// unmatched), for Classify. A non-nil stats shard additionally records the
// per-entry classification latency (obs.HistClassifyEntry); nil skips the
// clock reads entirely, so the default match path is unchanged.
func matchChunk(b sigBackend, entries []Entry, res *MatchResult, sigMatched, sigFailed map[int]bool, hits map[int]int, verdicts []int, stats *obs.Shard) {
	var t0 time.Time
	for ei, e := range entries {
		if e.Status >= 400 {
			continue
		}
		if stats != nil {
			t0 = time.Now()
		}
		res.TraceEntries++
		best := -1
		for i := 0; i < b.NumSigs(); i++ {
			if b.Method(i) != e.Method {
				continue
			}
			if !b.MatchURI(i, e.URL) {
				continue
			}
			// Prefer the most specific match (longest literal regex).
			if best < 0 || b.SpecLen(i) > b.SpecLen(best) {
				best = i
			}
		}
		if best < 0 {
			res.Unmatched = append(res.Unmatched, e.RouteID)
			if stats != nil {
				stats.Observe(obs.HistClassifyEntry, time.Since(t0).Nanoseconds())
			}
			continue
		}
		res.MatchedEntries++
		sigMatched[b.TxID(best)] = true
		if hits != nil {
			hits[b.TxID(best)]++
		}
		if verdicts != nil {
			verdicts[ei] = b.TxID(best)
		}
		ok := true

		if st := b.URIStats(best, e.URL); st.Total() > 0 {
			res.URIStats.Add(st)
		}
		if bodyOK, st := b.MatchRequestBody(best, e.ReqBody); !bodyOK {
			ok = false
			res.ReqStats.Add(st)
		} else {
			res.ReqStats.Add(st)
		}
		if respOK, st := b.MatchResponseBody(best, e.RespType, e.RespBody); !respOK {
			ok = false
			res.RespStats.Add(st)
		} else {
			res.RespStats.Add(st)
		}
		if !ok {
			sigFailed[b.TxID(best)] = true
		}
		if stats != nil {
			stats.Observe(obs.HistClassifyEntry, time.Since(t0).Nanoseconds())
		}
	}
}

// finishSigCounts derives the signature-level tallies from the per-ID maps.
func finishSigCounts(res *MatchResult, sigMatched, sigFailed map[int]bool) {
	res.SigsWithTraffic = len(sigMatched)
	for id := range sigMatched {
		if !sigFailed[id] {
			res.SigsValid++
		}
	}
}

// interpBackend is the interpretive oracle: per-signature compiled
// regexps for the URI pre-filter, everything else re-derived per entry by
// the siglang matchers, exactly as MatchReport always has.
type interpBackend struct {
	sigs []interpSig
}

type interpSig struct {
	tx *core.Transaction
	re *regexp.Regexp
}

func newInterpBackend(rep *core.Report) *interpBackend {
	b := &interpBackend{}
	for _, tx := range rep.Transactions {
		re, err := siglang.Compile(tx.Request.URI)
		if err != nil {
			continue
		}
		b.sigs = append(b.sigs, interpSig{tx: tx, re: re})
	}
	return b
}

func (b *interpBackend) NumSigs() int        { return len(b.sigs) }
func (b *interpBackend) TxID(i int) int      { return b.sigs[i].tx.ID }
func (b *interpBackend) Method(i int) string { return b.sigs[i].tx.Request.Method }
func (b *interpBackend) SpecLen(i int) int   { return len(b.sigs[i].re.String()) }

func (b *interpBackend) MatchURI(i int, url string) bool {
	return b.sigs[i].re.MatchString(url)
}

func (b *interpBackend) URIStats(i int, url string) siglang.ByteStats {
	_, st := siglang.MatchText(b.sigs[i].tx.Request.URI, url)
	return st
}

func (b *interpBackend) MatchRequestBody(i int, body string) (bool, siglang.ByteStats) {
	tx := b.sigs[i].tx
	if body == "" {
		return true, siglang.ByteStats{}
	}
	switch tx.Request.BodyKind {
	case "query":
		return siglang.MatchQuery(tx.Request.Body, body)
	case "json":
		ok, st, err := siglang.MatchJSON(tx.Request.Body, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case "text":
		return matchTextOrQuery(tx.Request.Body, body)
	default:
		// Signature has no body model: all bytes unaccounted.
		return true, siglang.ByteStats{None: len(body)}
	}
}

// matchTextOrQuery matches text bodies; bodies shaped like query strings
// get key/value accounting.
func matchTextOrQuery(sig siglang.Sig, body string) (bool, siglang.ByteStats) {
	if siglang.QueryShapedBody(body) {
		return siglang.MatchQuery(sig, body)
	}
	return siglang.MatchText(sig, body)
}

func (b *interpBackend) MatchResponseBody(i int, respType, body string) (bool, siglang.ByteStats) {
	tx := b.sigs[i].tx
	if tx.Response == nil || body == "" {
		return true, siglang.ByteStats{}
	}
	switch {
	case tx.Response.BodyKind == "json" && respType == "json":
		ok, st, err := siglang.MatchJSON(&siglang.JSON{Root: tx.Response.JSON}, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case tx.Response.BodyKind == "xml" && respType == "xml":
		ok, st, err := siglang.MatchXML(&siglang.XML{Root: tx.Response.XML}, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	default:
		return true, siglang.ByteStats{None: len(body)}
	}
}

// vmBackend adapts a compiled bundle + per-worker matcher to the shared
// loop.
type vmBackend struct {
	b *sigvm.Bundle
	m *sigvm.Matcher
}

func (v *vmBackend) NumSigs() int        { return v.b.NumSigs() }
func (v *vmBackend) TxID(i int) int      { return v.b.TxID(i) }
func (v *vmBackend) Method(i int) string { return v.b.Method(i) }
func (v *vmBackend) SpecLen(i int) int   { return v.b.SpecLen(i) }

func (v *vmBackend) MatchURI(i int, url string) bool {
	return v.m.MatchURI(i, url)
}

func (v *vmBackend) URIStats(i int, url string) siglang.ByteStats {
	return v.m.URIStats(i, url)
}

func (v *vmBackend) MatchRequestBody(i int, body string) (bool, siglang.ByteStats) {
	return v.m.MatchRequestBody(i, body)
}

func (v *vmBackend) MatchResponseBody(i int, respType, body string) (bool, siglang.ByteStats) {
	return v.m.MatchResponseBody(i, respType, body)
}
