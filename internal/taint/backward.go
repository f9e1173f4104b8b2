package taint

import (
	"extractocol/internal/ir"
	"extractocol/internal/semmodel"
)

// Backward computes the request slice: all statements contributing to the
// value of register reg at the demarcation point dp, following inverted
// taint-propagation rules (tainted LHS taints RHS; callee parameters taint
// caller arguments; taint is consumed at definitions).
//
// Propagation rules live in the scanBackward* functions below as transfer
// summaries; the worklist loop replays memoized summaries (see summary.go).
func (e *Engine) Backward(dp StmtID, reg int) *Result {
	e.ensure()
	res := e.newResult()
	w := newDenseWorklist(e.idx)
	res.AddStmt(dp.Method, dp.Index)
	if mid, ok := e.idx.MethodID(dp.Method); ok {
		w.pushLocal(e.idx, mid, int32(reg), 0)
	}
	e.run(w, res, dirBackward, dp.Method)
	return res
}

// scanBackward emits the backward transfer effects of (method, reg) — the
// effects of processing one backward fact for that register — into b.
func (e *Engine) scanBackward(b *denseBuilder, method string, reg int) {
	m := e.Prog.Method(method)
	if m == nil {
		return
	}
	for i := range m.Instrs {
		in := &m.Instrs[i]
		if in.Def() == reg {
			e.sumBackwardDef(b, m, i, in)
		}
		e.sumBackwardMutation(b, m, i, in, reg)
	}
	// Parameter registers propagate to every caller's argument.
	if reg < m.NumParamRegs() {
		e.sumBackwardToCallers(b, m, reg)
	}
}

// sumBackwardDef handles a statement that defines the tainted register: the
// statement joins the slice and its operands become tainted.
func (e *Engine) sumBackwardDef(b *denseBuilder, m *ir.Method, idx int, in *ir.Instr) {
	b.include(m, idx)
	switch in.Op {
	case ir.OpConstStr, ir.OpConstInt, ir.OpConstNull, ir.OpNew:
		// Constant or allocation: taint is consumed here.
	case ir.OpMove:
		b.push(m.Ref(), in.A)
	case ir.OpBinop:
		b.push(m.Ref(), in.A)
		b.push(m.Ref(), in.B)
	case ir.OpFieldGet:
		loc := e.heapLoc(m, in)
		b.heapRead(loc)
		b.pushHeap(loc)
		b.push(m.Ref(), in.A)
	case ir.OpStaticGet:
		loc := "s:" + in.Sym
		b.heapRead(loc)
		b.pushHeap(loc)
	case ir.OpInvoke:
		e.sumBackwardInvokeDef(b, m, idx, in)
	}
}

func (e *Engine) sumBackwardInvokeDef(b *denseBuilder, m *ir.Method, idx int, in *ir.Instr) {
	pushArg := func(pos int) {
		if pos < len(in.Args) && in.Args[pos] != ir.NoReg {
			b.push(m.Ref(), in.Args[pos])
		}
	}
	pushAll := func(from int) {
		for p := from; p < len(in.Args); p++ {
			pushArg(p)
		}
	}
	if mm := e.Model.Lookup(in.Sym); mm != nil {
		switch mm.Kind {
		case semmodel.KGsonToJSON:
			// gson.toJson(obj): the serialized object, not the Gson
			// instance, carries the payload.
			pushArg(1)
		case semmodel.KToString, semmodel.KJSONToString,
			semmodel.KEntityContent, semmodel.KReadStream, semmodel.KRespGetEntity,
			semmodel.KRespBody, semmodel.KRespGetHeader, semmodel.KPassThrough,
			semmodel.KListGet, semmodel.KMapGet, semmodel.KJSONGetStr,
			semmodel.KJSONGetInt, semmodel.KJSONGetBool, semmodel.KJSONGetObj,
			semmodel.KJSONGetArr, semmodel.KJSONArrGet, semmodel.KJSONArrLen,
			semmodel.KOpenConnection, semmodel.KConnGetOutput, semmodel.KConnGetInput,
			semmodel.KXMLGetTag, semmodel.KXMLGetAttr, semmodel.KXMLGetText,
			semmodel.KMultipartBuild:
			pushArg(0)
		case semmodel.KValueOf, semmodel.KURLEncode, semmodel.KJSONParse,
			semmodel.KXMLParse, semmodel.KStringFormatIdentity:
			pushAll(0)
		case semmodel.KStringConcat, semmodel.KAppend:
			pushAll(0)
		case semmodel.KGsonFromJSON:
			pushArg(1)
		case semmodel.KOkBuild:
			pushArg(0)
		case semmodel.KOkNewCall:
			pushArg(1)
		case semmodel.KOkURL, semmodel.KOkPost, semmodel.KOkHeader,
			semmodel.KStreamWrap, semmodel.KMultipartAddPart:
			pushAll(0)
		case semmodel.KResGetString:
			if len(in.Args) >= 2 {
				if key, ok := e.constString(m, idx, in.Args[1]); ok {
					b.heapRead("res:" + key)
				}
			}
		case semmodel.KDBQuery:
			for _, loc := range e.dbLocs(m, idx, in) {
				b.heapRead(loc)
			}
		case semmodel.KExecuteDP:
			// The result of another transaction's DP feeding this value:
			// recorded as an execute statement; inter-transaction analysis
			// pairs the flows.
		default:
			pushAll(0)
		}
		return
	}
	// Application callee: taint its return registers. Each edge is gated on
	// the callee being inside the transaction universe.
	edges := e.appCallees(m, idx)
	if len(edges) == 0 {
		pushAll(0) // unknown method: conservative
		return
	}
	for _, edge := range edges {
		callee := e.Prog.Method(edge.Callee)
		if callee == nil {
			continue
		}
		b.begin(edge.Callee)
		for j := range callee.Instrs {
			ret := &callee.Instrs[j]
			if ret.Op == ir.OpReturn && ret.A != ir.NoReg {
				b.push(edge.Callee, ret.A)
			}
		}
		b.end()
	}
}

// sumBackwardMutation adds statements that mutate the tainted object: calls
// with the object as receiver of a modeled mutator, field stores into it,
// and app calls the object escapes into.
func (e *Engine) sumBackwardMutation(b *denseBuilder, m *ir.Method, idx int, in *ir.Instr, reg int) {
	switch in.Op {
	case ir.OpFieldPut:
		if in.A == reg {
			b.include(m, idx)
			b.push(m.Ref(), in.B)
		}
	case ir.OpInvoke:
		argPos := -1
		for p, a := range in.Args {
			if a == reg {
				argPos = p
				break
			}
		}
		if argPos < 0 {
			return
		}
		if mm := e.Model.Lookup(in.Sym); mm != nil {
			if argPos == 0 && isMutator(mm.Kind) {
				b.include(m, idx)
				for p := 1; p < len(in.Args); p++ {
					b.push(m.Ref(), in.Args[p])
				}
			}
			if argPos == 0 && mm.Kind == semmodel.KConnGetOutput && in.Dst != ir.NoReg {
				// The output stream writes into the connection: track it.
				b.include(m, idx)
				b.push(m.Ref(), in.Dst)
			}
			return
		}
		if in.Kind == ir.InvokeSpecial && argPos == 0 {
			// Constructor of an app or unknown class: arguments flow in.
			b.include(m, idx)
			for p := 1; p < len(in.Args); p++ {
				b.push(m.Ref(), in.Args[p])
			}
			return
		}
		// Object escapes into an app callee: follow its parameter there so
		// mutations inside the callee join the slice (universe-gated).
		for _, edge := range e.appCallees(m, idx) {
			callee := e.Prog.Method(edge.Callee)
			if callee == nil {
				continue
			}
			if pr := paramReg(callee, argPos); pr != ir.NoReg {
				b.begin(edge.Callee)
				b.include(m, idx)
				b.push(edge.Callee, pr)
				b.end()
			}
		}
	}
}

// isMutator reports whether calls of this kind change the receiver's
// logical value.
func isMutator(k semmodel.Kind) bool {
	switch k {
	case semmodel.KAppend, semmodel.KHTTPSetEntity, semmodel.KHTTPAddHeader,
		semmodel.KJSONPut, semmodel.KCVPut, semmodel.KListAdd, semmodel.KMapPut,
		semmodel.KConnSetMethod, semmodel.KConnSetHeader, semmodel.KOkURL,
		semmodel.KOkPost, semmodel.KOkHeader, semmodel.KStreamWrite,
		semmodel.KStringBuilderInit, semmodel.KHTTPReqInit, semmodel.KStringEntityInit,
		semmodel.KFormEntityInit, semmodel.KNVPairInit, semmodel.KURLInit,
		semmodel.KStreamWrap, semmodel.KMultipartAddPart:
		return true
	}
	return false
}

// sumBackwardToCallers propagates a tainted parameter to the corresponding
// argument at every call site, including implicit (async) edges. Call edges
// never cross the transaction context — only heap facts may escape it (as
// asynchronous hops) — so every caller-side effect is gated on the caller;
// facts that already escaped (hops > 0) continue in their writer's context.
func (e *Engine) sumBackwardToCallers(b *denseBuilder, m *ir.Method, reg int) {
	for _, edge := range e.CG.Callers(m.Ref()) {
		caller := e.Prog.Method(edge.Caller)
		if caller == nil {
			continue
		}
		if edge.Site < 0 {
			// Synthetic chain edge (doInBackground -> onPostExecute):
			// the callee's data parameter is the caller's return value.
			if reg == 1 {
				b.begin(edge.Caller)
				for j := range caller.Instrs {
					ret := &caller.Instrs[j]
					if ret.Op == ir.OpReturn && ret.A != ir.NoReg {
						b.include(caller, j)
						b.push(edge.Caller, ret.A)
					}
				}
				b.end()
			}
			continue
		}
		in := &caller.Instrs[edge.Site]
		base := 0
		if mm := e.Model.Lookup(in.Sym); mm != nil && mm.CallbackMethod != "" {
			base = mm.CallbackArg
		}
		pos := base + reg
		if pos < len(in.Args) && in.Args[pos] != ir.NoReg {
			b.begin(edge.Caller)
			b.include(caller, edge.Site)
			b.push(edge.Caller, in.Args[pos])
			b.end()
		}
	}
}
