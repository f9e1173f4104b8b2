// Performance regression guards. Each guard measures a set of committed
// benchmarks and compares them against a baseline file, BENCH_<name>.json,
// at the repo root. Thresholds are deliberately generous — the guards exist
// to catch order-of-magnitude regressions (an accidentally quadratic loop,
// a per-statement allocation in a hot path), not scheduler noise. A few
// absolute contracts (hotPathAllocBudgets, vmSpeedupFloor) are checked on
// the current measurement itself, so no regeneration can launder them.
//
// Every guard shares one read/regenerate/compare step (guardBaseline).
// Regenerate a baseline after an intentional performance change with:
//
//	EXTRACTOCOL_BENCH_BASELINE=write go test -run TestBenchRegressionGuard .
//
// (or the guard test that owns the file in question).
package extractocol

import (
	"encoding/json"
	"os"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obs"
	"extractocol/internal/trace"
)

const baselinePath = "BENCH_baseline.json"

// Multipliers a measurement may grow by before the guard fails. Wall time
// gets the larger factor because CI machines vary wildly; allocation counts
// are nearly deterministic, so a small factor already means a real change.
const (
	nsSlack     = 20
	allocsSlack = 3
)

type benchBaseline struct {
	App         string           `json:"app"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	PhaseNS     map[string]int64 `json:"phase_ns"`
}

func (b benchBaseline) app() string { return b.App }

// guardApp is the corpus app the guards analyze: the paper's running
// example, big enough to exercise every pipeline phase.
const guardApp = "radio reddit"

// skipGuard skips the timing guards where their numbers mean nothing.
func skipGuard(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews timing and allocation counts")
	}
}

// guardBaseline is the read/regenerate/compare step every guard shares.
// With no file at path, or under EXTRACTOCOL_BENCH_BASELINE=write, it
// writes cur there and compares nothing; otherwise it decodes the file,
// checks both sides measure the same app, and hands the baseline to
// compare.
func guardBaseline[T interface{ app() string }](t *testing.T, path string, cur T, compare func(base T)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) || os.Getenv("EXTRACTOCOL_BENCH_BASELINE") == "write" {
		out, merr := json.MarshalIndent(cur, "", "  ")
		if merr != nil {
			t.Fatal(merr)
		}
		if werr := os.WriteFile(path, append(out, '\n'), 0o644); werr != nil {
			t.Fatal(werr)
		}
		t.Logf("wrote %s: %s", path, out)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	var base T
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	if base.app() != cur.app() {
		t.Fatalf("baseline measures %q, guard measures %q; regenerate the baseline", base.app(), cur.app())
	}
	compare(base)
}

// checkSlack fails name when its ns/op or allocs/op outgrew the baseline
// by more than the slack factors.
func checkSlack(t *testing.T, path, name string, got, base sliceOpBaseline) {
	t.Helper()
	if got.NsPerOp > base.NsPerOp*nsSlack {
		t.Errorf("%s takes %d ns/op, baseline %d (limit %dx): investigate or regenerate %s",
			name, got.NsPerOp, base.NsPerOp, nsSlack, path)
	}
	if got.AllocsPerOp > base.AllocsPerOp*allocsSlack {
		t.Errorf("%s makes %d allocs/op, baseline %d (limit %dx): investigate or regenerate %s",
			name, got.AllocsPerOp, base.AllocsPerOp, allocsSlack, path)
	}
}

func measureBaseline(t *testing.T) benchBaseline {
	t.Helper()
	app, err := corpus.ByName(guardApp)
	if err != nil {
		t.Fatal(err)
	}

	var prof *obs.Profile
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.Analyze(app.Prog, core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			prof = rep.Profile
		}
	})

	bl := benchBaseline{
		App:         guardApp,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		PhaseNS:     map[string]int64{},
	}
	for _, ph := range prof.Phases {
		bl.PhaseNS[ph.Name] = ph.DurationNS
	}
	return bl
}

// TestBenchRegressionGuard measures one representative end-to-end analysis
// (per-phase wall time plus allocations) against BENCH_baseline.json.
func TestBenchRegressionGuard(t *testing.T) {
	skipGuard(t)
	cur := measureBaseline(t)
	guardBaseline(t, baselinePath, cur, func(base benchBaseline) {
		checkSlack(t, baselinePath, "analysis",
			sliceOpBaseline{NsPerOp: cur.NsPerOp, AllocsPerOp: cur.AllocsPerOp},
			sliceOpBaseline{NsPerOp: base.NsPerOp, AllocsPerOp: base.AllocsPerOp})
		for name, ns := range base.PhaseNS {
			// An absolute floor keeps sub-millisecond phases from flagging on
			// clock granularity alone.
			limit := ns*nsSlack + int64(5e6)
			if got := cur.PhaseNS[name]; got > limit {
				t.Errorf("phase %q takes %d ns, baseline %d (limit %d)", name, got, ns, limit)
			}
		}
		for name := range base.PhaseNS {
			if _, ok := cur.PhaseNS[name]; !ok {
				t.Errorf("phase %q vanished from the profile; regenerate %s if intentional", name, baselinePath)
			}
		}
	})
}

// ---- Disabled-tracer zero-allocation guard ------------------------------------

// TestTracerDisabledZeroAlloc pins the tentpole's zero-cost contract
// absolutely (no slack factors): the span-instrumented hot path must not
// allocate at all when tracing is off. Any alloc here multiplies by every
// taint fact of every slice of every app.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates on instrumented paths")
	}
	res := testing.Benchmark(BenchmarkTracerDisabled)
	if res.N == 0 {
		t.Fatal("benchmark failed to run")
	}
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("disabled-tracer hot path makes %d allocs/op, want 0", a)
	}
}

// ---- Per-op guards -------------------------------------------------------------

type sliceOpBaseline struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

type sliceBenchBaseline struct {
	App string                     `json:"app"`
	Ops map[string]sliceOpBaseline `json:"ops"`
}

func (b sliceBenchBaseline) app() string { return b.App }

// opsGuard is one row of the per-op guard table: a baseline file and the
// committed benchmarks it pins, run themselves so the guard and
// `go test -bench` always measure the same code path.
type opsGuard struct {
	path string
	app  string
	ops  map[string]func(*testing.B)
	// check, when set, enforces absolute contracts on the current
	// measurement before the baseline file is read.
	check func(t *testing.T, cur sliceBenchBaseline)
}

func (g opsGuard) run(t *testing.T) {
	skipGuard(t)
	cur := sliceBenchBaseline{App: g.app, Ops: map[string]sliceOpBaseline{}}
	for name, fn := range g.ops {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Fatalf("benchmark %q failed to run", name)
		}
		cur.Ops[name] = sliceOpBaseline{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
	}
	if g.check != nil {
		g.check(t, cur)
	}
	guardBaseline(t, g.path, cur, func(base sliceBenchBaseline) {
		for name, b := range base.Ops {
			got, ok := cur.Ops[name]
			if !ok {
				t.Errorf("op %q vanished from the guard; regenerate %s if intentional", name, g.path)
				continue
			}
			checkSlack(t, g.path, name, got, b)
		}
	})
}

// sliceGuard pins the three slicing microbenchmarks, with absolute
// allocation ceilings on the de-stringed hot paths.
var sliceGuard = opsGuard{
	path: "BENCH_slice.json",
	app:  guardApp,
	ops: map[string]func(*testing.B){
		"slice_find":     BenchmarkSliceFind,
		"taint_backward": BenchmarkTaintBackward,
		"augment":        BenchmarkAugment,
	},
	check: func(t *testing.T, cur sliceBenchBaseline) {
		for name, budget := range hotPathAllocBudgets {
			got, ok := cur.Ops[name]
			if !ok {
				t.Errorf("budgeted op %q missing from the guard", name)
				continue
			}
			if got.AllocsPerOp > budget {
				t.Errorf("%s makes %d allocs/op, absolute budget %d: the interned hot path has re-grown string churn",
					name, got.AllocsPerOp, budget)
			}
		}
	},
}

func TestSliceBenchGuard(t *testing.T) { sliceGuard.run(t) }

// hotPathAllocBudgets pins the interning refactor's allocation contract as
// absolute ceilings: slice_find sits 5x under its pre-interning baseline
// (2919 allocs/op, see EXPERIMENTS.md) with headroom over the measured ~400;
// taint_backward covers a fresh engine's summary build (measured 26).
var hotPathAllocBudgets = map[string]int64{
	"slice_find":     583,
	"taint_backward": 40,
}

// pairingGuard pins the indexed pairing group analysis and the fully warm
// cached analysis.
var pairingGuard = opsGuard{
	path: "BENCH_pairing.json",
	app:  guardApp,
	ops: map[string]func(*testing.B){
		"pairing_analyze": BenchmarkPairingAnalyze,
		"cache_warm_run":  BenchmarkCacheWarmRun,
	},
}

func TestPairingBenchGuard(t *testing.T) { pairingGuard.run(t) }

// genGuard pins generation and end-to-end analysis of the fixed 100-app
// seeded corpus. It keeps the differential harness affordable: a quadratic
// slip in generation or analysis multiplies across every equivalence axis.
var genGuard = opsGuard{
	path: "BENCH_gen.json",
	app:  "gen-1729-100",
	ops: map[string]func(*testing.B){
		"gen_corpus_rand":    BenchmarkGenCorpusRand,
		"gen_corpus_analyze": BenchmarkGenCorpusAnalyze,
	},
}

func TestGenBenchGuard(t *testing.T) { genGuard.run(t) }

// internGuard pins the interning layer's own costs — the one-time
// dense-index build and the bitset algebra the hot loops run on. The layer
// buys its speedup with a fixed per-program cost; this guard keeps that
// cost fixed.
var internGuard = opsGuard{
	path: "BENCH_intern.json",
	app:  guardApp,
	ops: map[string]func(*testing.B){
		"intern_index":      BenchmarkInternIndex,
		"intern_bits_union": BenchmarkInternBitsUnion,
	},
}

func TestInternBenchGuard(t *testing.T) { internGuard.run(t) }

// vmSpeedupFloor is the minimum classify_interp/classify_vm ns ratio.
const vmSpeedupFloor = 5

// classifyGuard pins the signature-matcher backends, plus one absolute
// floor that never moves with the baseline: the compiled VM must classify
// at least vmSpeedupFloor times faster than the interpretive oracle, the
// speedup the bytecode compiler exists to deliver.
var classifyGuard = opsGuard{
	path: "BENCH_classify.json",
	app:  guardApp,
	ops: map[string]func(*testing.B){
		"classify_vm":          func(b *testing.B) { benchClassify(b, trace.ClassifyOptions{VM: true, Workers: 1}) },
		"classify_vm_parallel": func(b *testing.B) { benchClassify(b, trace.ClassifyOptions{VM: true, Workers: -1}) },
		"classify_interp":      func(b *testing.B) { benchClassify(b, trace.ClassifyOptions{Workers: 1}) },
	},
	check: func(t *testing.T, cur sliceBenchBaseline) {
		vm := cur.Ops["classify_vm"].NsPerOp
		interp := cur.Ops["classify_interp"].NsPerOp
		if vm*vmSpeedupFloor > interp {
			t.Errorf("compiled VM classifies at %d ns/op vs interpretive %d ns/op (%.1fx): floor is %dx",
				vm, interp, float64(interp)/float64(vm), vmSpeedupFloor)
		}
	},
}

func TestClassifyBenchGuard(t *testing.T) { classifyGuard.run(t) }
