// Package sigvm compiles siglang signatures into compact matcher programs
// and executes them against traffic at line rate. The interpretive matcher
// (siglang.MatchText/MatchQuery/MatchJSON/MatchXML driven by
// trace.MatchReport) re-derives everything per entry: it renders and
// compiles the URI regex, rebuilds keyword sets, re-merges array element
// signatures, and recompiles string-leaf regexes. A Bundle does all of
// that once per report:
//
//   - URI templates and text bodies lower to a five-opcode Pike-VM
//     bytecode (see text.go) with precomputed literal fragments, anchored
//     literal prefixes, and the rendered-regex length used for best-match
//     tie-breaking;
//   - query/form key sets become interned-symbol bitsets (query.go);
//   - JSON body trees flatten to node arrays with key sets interned and
//     array confluence-merges precomputed over clones (json.go);
//   - XML element trees carry interned attribute/child-tag sets (xml.go).
//
// A Bundle is immutable after Compile and shared read-only across any
// number of matcher goroutines; all mutable run state (Pike thread lists,
// visited marks) lives in per-worker Matcher values. The interpretive
// matcher stays the equivalence oracle: trace.MatchOptions selects the
// backend, the matchvm differential axis in internal/evaluate compares the
// two over generated corpora, and FuzzSigVM compares them per primitive.
package sigvm

import (
	"extractocol/internal/core"
	"extractocol/internal/intern"
	"extractocol/internal/siglang"
)

// Prog is the compiled form of one transaction signature.
type Prog struct {
	TxID   int
	Method string

	uri *TextProg

	reqKind  string     // RequestSig.BodyKind: "", "query", "json", "text", ...
	reqQuery *QueryProg // "query", and the query-shaped half of "text"
	reqJSON  *JSONProg  // "json"
	reqText  *TextProg  // the text half of "text"

	hasResp  bool   // a response signature exists (even with no body model)
	respKind string // ResponseSig.BodyKind ("" when the body is unused)
	respJSON *JSONProg
	respXML  *XMLProg

	headerKeys []string // constant request-header keys (interned, informational)
}

// Bundle is a report's signatures compiled for matching: one shared
// symbol table, one Prog per transaction. Immutable after Compile.
type Bundle struct {
	syms  *intern.Table
	progs []Prog
	maxPC int // largest text program, sizes Matcher scratch
}

// Compile lowers every transaction signature in a report. Signatures whose
// URI regex does not compile still get a Prog — their text program simply
// never matches, mirroring MatchReport's skip of uncompilable signatures.
func Compile(rep *core.Report) *Bundle {
	b := &Bundle{syms: intern.NewTable(64)}
	for _, tx := range rep.Transactions {
		b.progs = append(b.progs, b.compileTx(tx))
	}
	return b
}

func (b *Bundle) compileTx(tx *core.Transaction) Prog {
	p := Prog{
		TxID:   tx.ID,
		Method: tx.Request.Method,
		uri:    b.note(compileText(tx.Request.URI)),
	}
	for _, h := range tx.Request.Headers {
		if !h.Dyn {
			b.syms.Intern(h.Key)
			p.headerKeys = append(p.headerKeys, h.Key)
		}
	}
	p.reqKind = tx.Request.BodyKind
	switch p.reqKind {
	case "query":
		p.reqQuery = b.compileQuery(tx.Request.Body)
	case "json":
		p.reqJSON = b.compileJSON(tx.Request.Body)
	case "text":
		// Text bodies shaped like query strings get key/value matching
		// (trace.matchTextOrQuery), so compile both forms.
		p.reqQuery = b.compileQuery(tx.Request.Body)
		p.reqText = b.note(compileText(tx.Request.Body))
	}
	if tx.Response != nil {
		p.hasResp = true
		p.respKind = tx.Response.BodyKind
		switch p.respKind {
		case "json":
			if tx.Response.JSON != nil {
				p.respJSON = b.compileJSON(&siglang.JSON{Root: tx.Response.JSON})
			} else {
				p.respJSON = b.compileJSON(nil)
			}
		case "xml":
			p.respXML = b.compileXML(tx.Response.XML)
		}
	}
	return p
}

// note tracks the largest text program so Matcher scratch is sized once.
// JSON string-leaf programs are compiled inside compileJSON and noted
// lazily by Matcher.ensure instead.
func (b *Bundle) note(p *TextProg) *TextProg {
	if n := len(p.insts); n > b.maxPC {
		b.maxPC = n
	}
	return p
}

// NumSigs returns the number of compiled signatures.
func (b *Bundle) NumSigs() int { return len(b.progs) }

// TxID returns signature i's transaction ID.
func (b *Bundle) TxID(i int) int { return b.progs[i].TxID }

// Method returns signature i's HTTP method.
func (b *Bundle) Method(i int) string { return b.progs[i].Method }

// SpecLen returns the length of signature i's rendered URI regex — the
// specificity weight MatchReport breaks best-match ties with.
func (b *Bundle) SpecLen(i int) int { return b.progs[i].uri.spec }

// HeaderKeys returns signature i's constant request-header keys.
func (b *Bundle) HeaderKeys(i int) []string { return b.progs[i].headerKeys }

// Matcher executes a Bundle's programs. It owns the mutable scratch of
// the Pike VM (thread lists, generation-stamped visited marks), so each
// worker goroutine needs its own Matcher; the Bundle itself is shared.
type Matcher struct {
	b         *Bundle
	cur, next []uint32
	stack     []uint32
	mark      []uint32
	gen       uint32
}

// NewMatcher returns a matcher over the bundle with scratch sized for its
// largest program.
func (b *Bundle) NewMatcher() *Matcher {
	m := &Matcher{b: b}
	m.ensure(b.maxPC)
	return m
}

// ensure grows the visited-mark scratch to cover programs of n
// instructions.
func (m *Matcher) ensure(n int) {
	if n > len(m.mark) {
		m.mark = make([]uint32, n)
		m.gen = 0
	}
}

// bump starts a new visited generation, clearing marks only on wraparound.
func (m *Matcher) bump() {
	m.gen++
	if m.gen == 0 {
		for i := range m.mark {
			m.mark[i] = 0
		}
		m.gen = 1
	}
}

// MatchURI reports whether url matches signature i's URI template —
// the VM form of MatchReport's per-entry re.MatchString pre-filter.
func (m *Matcher) MatchURI(i int, url string) bool {
	return m.matchText(m.b.progs[i].uri, url)
}

// URIStats returns the Table 2 byte accounting of url against signature
// i's URI template (zero stats when it does not match), the VM form of
// siglang.MatchText on the URI.
func (m *Matcher) URIStats(i int, url string) siglang.ByteStats {
	_, st := m.matchTextStats(m.b.progs[i].uri, url)
	return st
}

// MatchRequestBody validates a request body against signature i, the VM
// form of trace's matchRequestBody: same body-kind dispatch, same
// unmodeled-body accounting.
func (m *Matcher) MatchRequestBody(i int, body string) (bool, siglang.ByteStats) {
	if body == "" {
		return true, siglang.ByteStats{}
	}
	p := &m.b.progs[i]
	switch p.reqKind {
	case "query":
		return m.b.matchQuery(p.reqQuery, body)
	case "json":
		ok, st, err := m.matchJSON(p.reqJSON, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case "text":
		if siglang.QueryShapedBody(body) {
			return m.b.matchQuery(p.reqQuery, body)
		}
		return m.matchTextStats(p.reqText, body)
	default:
		// Signature has no body model: all bytes unaccounted.
		return true, siglang.ByteStats{None: len(body)}
	}
}

// MatchResponseBody validates a response body against signature i, the VM
// form of trace's matchResponseBody.
func (m *Matcher) MatchResponseBody(i int, respType, body string) (bool, siglang.ByteStats) {
	p := &m.b.progs[i]
	if !p.hasResp || body == "" {
		return true, siglang.ByteStats{}
	}
	switch {
	case p.respKind == "json" && respType == "json":
		ok, st, err := m.matchJSON(p.respJSON, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	case p.respKind == "xml" && respType == "xml":
		ok, st, err := m.b.matchXML(p.respXML, []byte(body))
		if err != nil {
			return false, siglang.ByteStats{}
		}
		return ok, st
	default:
		return true, siglang.ByteStats{None: len(body)}
	}
}
