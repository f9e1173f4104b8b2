// Package runtime executes applications authored in the IR against the
// simulated network. It is the dynamic-analysis substrate of the
// evaluation: the manual and automatic UI-fuzzing baselines (package fuzz)
// drive entry points through this interpreter, producing the traffic traces
// the paper captures with mitmproxy. The interpreter executes the same API
// semantics the static analyzer models (package semmodel), concretely.
package runtime

import (
	"fmt"
	"strconv"
	"strings"

	"extractocol/internal/httpsim"
	"extractocol/internal/ir"
)

// object is a runtime heap object. Builtin library classes piggyback their
// concrete state on dedicated fields.
type object struct {
	class  string
	fields map[string]value

	sb      *strings.Builder  // StringBuilder
	jsonMap map[string]any    // JSONObject
	jsonOrd []string          // JSONObject key order
	jsonArr []any             // JSONArray
	list    []value           // ArrayList
	kv      map[string]value  // HashMap / ContentValues
	kvOrd   []string          //
	pair    [2]value          // BasicNameValuePair
	req     *reqState         // HTTP request under construction
	resp    *httpsim.Response // HTTP response
	entity  *entityState      // request entity or response stream
	xml     *xmlNode          // parsed XML document/element
	stream  *reqState         // output stream bound to a connection
}

type reqState struct {
	method  string
	uri     string
	headers map[string]string
	hdrOrd  []string
	body    string
	sent    bool
}

type entityState struct {
	body string
}

// value is a runtime value: nil, string, int64, bool or *object.
type value any

// VM interprets one application against a network.
type VM struct {
	Prog *ir.Program
	Net  *httpsim.Network

	// Statics holds static fields ("Class.field" -> value).
	Statics map[string]value
	// DB is the app-local SQLite store ("table.col" -> value).
	DB map[string]value
	// Consumed counts data-sink consumption events by sink name.
	Consumed map[string]int

	// Input supplies entry-point arguments (user input). The default
	// provider returns deterministic placeholder values.
	Input func(method string, param int, typ string) value

	steps    int
	maxSteps int
	depth    int
}

// maxCallDepth bounds the interpreter's call stack, its analogue of
// Dalvik's StackOverflowError: unbounded recursion (a long-poll handler
// that re-arms itself) fails the entry point after this many frames
// instead of running the step budget down one exchange per frame.
// Non-recursive apps stay a few frames deep.
const maxCallDepth = 300

// New creates a VM for the program bound to a network.
func New(p *ir.Program, net *httpsim.Network) *VM {
	return &VM{
		Prog:     p,
		Net:      net,
		Statics:  map[string]value{},
		DB:       map[string]value{},
		Consumed: map[string]int{},
		Input:    DefaultInput,
		maxSteps: 1_000_000,
	}
}

// DefaultInput returns deterministic placeholder user input.
func DefaultInput(method string, param int, typ string) value {
	switch typ {
	case "int", "long", "short", "byte":
		return int64(param + 1)
	case "boolean":
		return true
	default:
		return fmt.Sprintf("input%d", param)
	}
}

// Fire triggers one entry point, as a UI/lifecycle event would.
func (vm *VM) Fire(ep ir.EntryPoint) error {
	m := vm.Prog.Method(ep.Method)
	if m == nil {
		return fmt.Errorf("runtime: entry %s not found", ep.Method)
	}
	vm.steps = 0
	args := make([]value, 0, m.NumParamRegs())
	if !m.Static {
		args = append(args, vm.newObject(m.Class.Name))
	}
	for i, t := range m.Params {
		args = append(args, vm.Input(ep.Method, i, t))
	}
	_, err := vm.call(m, args)
	return err
}

func (vm *VM) newObject(class string) *object {
	return &object{class: class, fields: map[string]value{}}
}

// call interprets a method body.
func (vm *VM) call(m *ir.Method, args []value) (value, error) {
	if len(m.Instrs) == 0 {
		return nil, nil
	}
	if vm.depth >= maxCallDepth {
		return nil, fmt.Errorf("runtime: call depth %d exhausted in %s", maxCallDepth, m.Ref())
	}
	vm.depth++
	defer func() { vm.depth-- }()
	regs := make([]value, m.Registers)
	copy(regs, args)
	pc := 0
	for pc < len(m.Instrs) {
		vm.steps++
		if vm.steps > vm.maxSteps {
			return nil, fmt.Errorf("runtime: step budget exhausted in %s", m.Ref())
		}
		in := &m.Instrs[pc]
		switch in.Op {
		case ir.OpNop:
		case ir.OpConstStr:
			regs[in.Dst] = in.Str
		case ir.OpConstInt:
			regs[in.Dst] = in.Int
		case ir.OpConstNull:
			regs[in.Dst] = nil
		case ir.OpMove:
			regs[in.Dst] = regs[in.A]
		case ir.OpBinop:
			v, err := evalBinop(in.Sym, regs[in.A], regs[in.B])
			if err != nil {
				return nil, fmt.Errorf("%s@%d: %w", m.Ref(), pc, err)
			}
			regs[in.Dst] = v
		case ir.OpNew:
			regs[in.Dst] = vm.newObject(in.Sym)
		case ir.OpFieldGet:
			o, ok := regs[in.A].(*object)
			if !ok {
				regs[in.Dst] = nil
			} else {
				regs[in.Dst] = o.fields[in.Sym]
			}
		case ir.OpFieldPut:
			if o, ok := regs[in.A].(*object); ok {
				o.fields[in.Sym] = regs[in.B]
			}
		case ir.OpStaticGet:
			regs[in.Dst] = vm.Statics[in.Sym]
		case ir.OpStaticPut:
			vm.Statics[in.Sym] = regs[in.B]
		case ir.OpIfZ:
			if isZero(regs[in.A]) {
				pc = in.Target
				continue
			}
		case ir.OpIfNZ:
			if !isZero(regs[in.A]) {
				pc = in.Target
				continue
			}
		case ir.OpIfEq:
			if valueEq(regs[in.A], regs[in.B]) {
				pc = in.Target
				continue
			}
		case ir.OpIfNe:
			if !valueEq(regs[in.A], regs[in.B]) {
				pc = in.Target
				continue
			}
		case ir.OpGoto:
			pc = in.Target
			continue
		case ir.OpReturn:
			if in.A == ir.NoReg {
				return nil, nil
			}
			return regs[in.A], nil
		case ir.OpInvoke:
			ret, err := vm.invoke(m, in, regs)
			if err != nil {
				return nil, err
			}
			if in.Dst != ir.NoReg {
				regs[in.Dst] = ret
			}
		}
		pc++
	}
	return nil, nil
}

// invoke dispatches a call: modeled library methods execute builtin
// semantics; application methods are interpreted recursively.
func (vm *VM) invoke(caller *ir.Method, in *ir.Instr, regs []value) (value, error) {
	args := make([]value, len(in.Args))
	for i, r := range in.Args {
		if r != ir.NoReg {
			args[i] = regs[r]
		}
	}
	// Builtin semantics for modeled APIs.
	if handled, ret, err := vm.builtin(in.Sym, args); handled {
		return ret, err
	}
	cls, name, ok := ir.SplitRef(in.Sym)
	if !ok {
		return nil, fmt.Errorf("runtime: bad method ref %q", in.Sym)
	}
	// Virtual dispatch on the receiver's dynamic class.
	var target *ir.Method
	if in.Kind == ir.InvokeVirtual || in.Kind == ir.InvokeInterface {
		if recv, isObj := args[0].(*object); isObj {
			target = vm.Prog.ResolveMethod(recv.class, name)
		}
	}
	if target == nil {
		target = vm.Prog.ResolveMethod(cls, name)
	}
	if target == nil {
		if name == "<init>" {
			return nil, nil // implicit constructor
		}
		// Unmodeled, unknown library call: inert.
		return nil, nil
	}
	return vm.call(target, args)
}

func isZero(v value) bool {
	switch t := v.(type) {
	case nil:
		return true
	case string:
		return t == ""
	case int64:
		return t == 0
	case bool:
		return !t
	default:
		return false
	}
}

func valueEq(a, b value) bool {
	if ao, okA := a.(*object); okA {
		bo, okB := b.(*object)
		return okB && ao == bo
	}
	if ai, okA := a.(int64); okA {
		bi, okB := b.(int64)
		return okB && ai == bi
	}
	if as, okA := a.(string); okA {
		bs, okB := b.(string)
		return okB && as == bs
	}
	if ab, okA := a.(bool); okA {
		bb, okB := b.(bool)
		return okB && ab == bb
	}
	return a == nil && b == nil
}

func evalBinop(op string, a, b value) (value, error) {
	ai, aok := toInt(a)
	bi, bok := toInt(b)
	if !aok || !bok {
		return nil, fmt.Errorf("binop %s on non-integers %T, %T", op, a, b)
	}
	switch op {
	case "+":
		return ai + bi, nil
	case "-":
		return ai - bi, nil
	case "*":
		return ai * bi, nil
	case "/":
		if bi == 0 {
			return int64(0), nil
		}
		return ai / bi, nil
	default:
		return nil, fmt.Errorf("unknown binop %q", op)
	}
}

func toInt(v value) (int64, bool) {
	switch t := v.(type) {
	case int64:
		return t, true
	case bool:
		if t {
			return 1, true
		}
		return 0, true
	case string:
		n, err := strconv.ParseInt(t, 10, 64)
		return n, err == nil
	}
	return 0, false
}

// str renders a runtime value as Java string conversion would.
func str(v value) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case string:
		return t
	case int64:
		return strconv.FormatInt(t, 10)
	case bool:
		return strconv.FormatBool(t)
	case *object:
		if t.sb != nil {
			return t.sb.String()
		}
		if t.jsonMap != nil {
			return jsonSerialize(t)
		}
		if t.entity != nil {
			return t.entity.body
		}
		return t.class + "@obj"
	default:
		return fmt.Sprintf("%v", t)
	}
}
