// Command perfbench is the repository's benchmark. It runs one workload in
// one process, as a closed loop (the next op starts when the previous one
// returns), times every op, checks every output against a reference from
// outside the analyzer, and prints the end-to-end metrics; with -trace 1 it
// records spans around its calls into each layer, replays the pipeline
// layers after each op for attribution, and prints the per-layer metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the lines before
// it are a human-readable table and a JSON record stamped with the host and
// the inputs. See perfbench/README.md for the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark scenario. Every method runs on the benchmark's
// goroutine.
type workload interface {
	// setup builds the inputs from the seed and the state the ops need. tr
	// is non-nil in the traced run, which records set-up calls too.
	setup(tr *tracer) error
	// passLen is the number of ops in one pass; the loop cycles passes.
	passLen() int
	// kind is op i's latency class: app, batch, hit or miss.
	kind(i int) string
	// units is how many items op i processes (apps, or entries in a batch).
	units(i int) int
	// run executes op i, recording spans on tr when it is non-nil.
	run(i int, tr *tracer) (any, error)
	// check verifies op i's output against its reference.
	check(i int, out any) error
	// attribute runs after a traced op's span closed, outside any op: it
	// files the layer figures of the op that gave out and recorded spans,
	// replaying layer calls where the op made them inside the program.
	attribute(i int, out any, spans []span, lay *layers) error
	// reset undoes what the ops run so far stored in the program's state
	// (rescan's new cache entries), so the next op sees the state set-up
	// left. It runs outside any op: after each complete pass, and between
	// the two runs of a traced pair.
	reset() error
	inputs() inputStamp
	close()
}

var workloadNames = []string{"cold", "classify", "rescan"}

func newWorkload(name string, seed uint64, tmp string, rep int) (workload, error) {
	switch name {
	case "cold":
		return &cold{seed: seed}, nil
	case "classify":
		return &classify{seed: seed}, nil
	case "rescan":
		return &rescan{seed: seed, dir: filepath.Join(tmp, fmt.Sprintf("cache%d", rep))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, which shrugs off one slow set-up.
const setupReps = 3

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	commit   string
	out      string
}

// oneP names the workloads that run on one P (GOMAXPROCS 1); the others
// keep the runtime's default of one P per CPU. The choice comes from ten
// seeds of each setting run interleaved on a 2-vCPU shared VM. rescan's
// tail is a miss of about 3 ms, and on two Ps a miss that fans out over
// workers, or overlaps a GC cycle on the second P, waits on whichever vCPU
// the host lends last: one run in ten read op_ms_p99 63% above the median,
// and one busy neighbour process raised it by half. On one P the worst run
// read 13% above the median, and the neighbour changed nothing. cold and
// classify were steadier on two Ps (ops_per_s spread 0.09 and 0.08,
// against 0.21 and 0.16 on one), with the GC's mark work running beside
// the op rather than inside it.
var oneP = map[string]bool{"rescan": true}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var secs float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&secs, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, for the stamp")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the temporary cache and span dumps")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if secs <= 0 || trace < 0 || trace > 1 {
		return cfg, errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	cfg.seconds = time.Duration(secs * float64(time.Second))
	cfg.trace = trace == 1
	return cfg, nil
}

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if oneP[cfg.workload] {
		runtime.GOMAXPROCS(1)
	}
	tmp := filepath.Join(cfg.out, "tmp", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(tmp)

	reps := setupReps
	var tr *tracer
	if cfg.trace {
		reps, tr = 1, newTracer()
	}
	var w workload
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if w != nil {
			// Each set-up starts from a clean heap, as in a fresh process,
			// so the previous one's garbage is not collected on its clock.
			w.close()
			w = nil
			runtime.GC()
		}
		if w, err = newWorkload(cfg.workload, cfg.seed, tmp, rep); err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		if err := warmUp(w); err != nil {
			w.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	lay := newLayers()
	if tr != nil {
		lay.addSpans(tr.spans) // set-up calls, such as sigvm.Compile
	}
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	res, err := measure(w, cfg.seconds, tr, lay)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	in := w.inputs()
	in.Seed = cfg.seed

	gated, detail, e2eErr := endToEnd(cfg.workload, res, setups, rss)
	if e2eErr != nil && !cfg.trace {
		return e2eErr
	}
	var perLayer map[string]metric
	if cfg.trace {
		if perLayer, err = layerMetrics(lay); err != nil {
			return err
		}
		path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}

	host := newHostStamp(cfg.commit)
	printTable(stdout, cfg, host, in, res, gated, detail, e2eErr, perLayer, lay)
	record, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "trace": cfg.trace, "host": host, "inputs": in,
		"samples": res.samples(), "end_to_end": merge(gated, detail), "per_layer": perLayer,
		"profile_p50_us": profileP50s(lay),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(record))

	final := gated
	if cfg.trace {
		final = perLayer
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, final})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}

// warmUp runs one untimed, unchecked pass. An op that fails here fails
// again in the timed passes, where it is counted.
func warmUp(w workload) error {
	for i := 0; i < w.passLen(); i++ {
		w.run(i, nil)
	}
	return w.reset()
}

type opStat struct {
	kind  string
	ns    int64
	units int
}

type result struct {
	attempted, failed int
	errs              []string
	ops               []opStat // untraced ops: the end-to-end figures
	blocks            []int    // end index in ops of each complete block
	gc                gcStats  // runtime counters summed over untraced ops
	// Traced pairs: how many, and their summed untraced time and summed
	// traced-minus-untraced time, for the tracing overhead.
	pairs               int
	untracedNS, extraNS int64
	pending             []pendingOp // traced ops awaiting attribution
}

// measure runs the closed loop for d, in whole passes, so every run weighs
// the ops of a pass alike. Untraced passes are grouped into blocks, each
// large enough for its own p99. A traced run alternates an untraced pass,
// which gives the runtime figures, with a paired pass (see pair). Either
// run goes on past d, up to 3d, until it has minBlocks blocks or, traced,
// every per-layer p99 has enough samples beyond it.
func measure(w workload, d time.Duration, tr *tracer, lay *layers) (*result, error) {
	r := &result{}
	gcs := newGCSampler()
	start := time.Now()
	for pass := 0; ; pass++ {
		if el := time.Since(start); el >= d && (r.enough(tr != nil, lay) || el >= 3*d) {
			break
		}
		paired := tr != nil && pass%2 == 1
		for i := 0; i < w.passLen(); i++ {
			if paired {
				if err := r.pair(w, i, tr, lay); err != nil {
					return nil, err
				}
				continue
			}
			before := gcs.read()
			out, ns, err := timeOp(w, i, nil)
			r.gc.addDelta(before, gcs.read())
			r.ops = append(r.ops, opStat{w.kind(i), ns, w.units(i)})
			r.record(w, i, out, err)
		}
		if paired {
			if err := r.attributePending(w, lay); err != nil {
				return nil, err
			}
		} else {
			r.closeBlock()
		}
		if err := w.reset(); err != nil {
			return nil, fmt.Errorf("end of pass: %w", err)
		}
	}
	lay.count("goruntime.alloc_bytes", r.gc.allocBytes)
	lay.count("goruntime.gc_cycles", r.gc.cycles)
	lay.count("goruntime.gc_cpu_s", r.gc.gcCPU)
	lay.count("goruntime.total_cpu_s", r.gc.totalCPU)
	lay.count("goruntime.ops", float64(len(r.ops)))
	lay.count("bench.overhead_ns", float64(r.extraNS))
	lay.count("bench.untraced_ns", float64(r.untracedNS))
	lay.count("bench.paired_ops", float64(r.pairs))
	return r, nil
}

// timeOp runs op i once, timed around the whole op; tr records its spans
// when it is non-nil.
func timeOp(w workload, i int, tr *tracer) (any, int64, error) {
	t0 := time.Now()
	tr.begin("op")
	out, err := w.run(i, tr)
	tr.end()
	return out, time.Since(t0).Nanoseconds(), err
}

// record checks op i's output and counts the op; it reports whether the op
// ran to completion.
func (r *result) record(w workload, i int, out any, err error) bool {
	ran := err == nil
	if ran {
		err = w.check(i, out)
	}
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
	return ran
}

// pair runs op i untraced and traced, back to back, with the program
// state reset in between, so the two times differ by the cost of tracing
// and not by host drift. The order alternates from pair to pair, so
// neither run is always the one that finds the other's data in the CPU
// caches. The traced run's spans feed the per-layer figures; its
// attribution pass waits for the next batch (see attributePending).
func (r *result) pair(w workload, i int, tr *tracer, lay *layers) error {
	runs := [2]*tracer{nil, tr}
	if r.pairs%2 == 1 {
		runs = [2]*tracer{tr, nil}
	}
	var untraced, traced int64
	for k, optr := range runs {
		if k == 1 {
			if err := w.reset(); err != nil {
				return fmt.Errorf("reset: %w", err)
			}
		}
		if optr != nil {
			tr.op = r.attempted
		}
		out, ns, err := timeOp(w, i, optr)
		ran := r.record(w, i, out, err)
		if optr == nil {
			untraced = ns
			continue
		}
		traced = ns
		spans := tr.opSpans()
		lay.addSpans(spans)
		if ran {
			r.pending = append(r.pending, pendingOp{i, out, spans})
		}
	}
	r.pairs++
	r.untracedNS += untraced
	r.extraNS += traced - untraced
	if len(r.pending) >= attributeEvery {
		return r.attributePending(w, lay)
	}
	return nil
}

// attributeEvery is how many traced ops wait for their attribution passes.
// One collection after each batch clears the replay's garbage, so no op
// pays for it, at a cost shared by the whole batch.
const attributeEvery = 50

type pendingOp struct {
	i     int
	out   any
	spans []span
}

// attributePending runs the waiting attribution passes and then collects
// the garbage they left, all outside any op.
func (r *result) attributePending(w workload, lay *layers) error {
	for _, p := range r.pending {
		if err := w.attribute(p.i, p.out, p.spans, lay); err != nil {
			return fmt.Errorf("attribution: %w", err)
		}
	}
	r.pending = r.pending[:0]
	runtime.GC()
	return nil
}

// samples counts the untraced ops behind the latency figures, by kind,
// and the blocks they were split into.
func (r *result) samples() map[string]int {
	n := map[string]int{"all": len(r.ops), "blocks": len(r.blockOps())}
	for _, o := range r.ops {
		n[o.kind]++
	}
	return n
}

// minBlocks is how many blocks an untraced run measures at least, so the
// reported medians rest on several independent stretches of time.
const minBlocks = 3

// closeBlock ends the current block after a pass once it holds enough ops,
// and enough hits where there are any, for a p99 with ten samples beyond.
func (r *result) closeBlock() {
	first := 0
	if n := len(r.blocks); n > 0 {
		first = r.blocks[n-1]
	}
	need := tailSamples(99)
	hits := 0
	for _, o := range r.ops[first:] {
		if o.kind == "hit" {
			hits++
		}
	}
	if len(r.ops)-first >= need && (hits == 0 || hits >= need) {
		r.blocks = append(r.blocks, len(r.ops))
	}
}

// blockOps splits the untraced ops into their blocks; ops after the last
// complete block join it, and a run too short for one block is one block.
func (r *result) blockOps() [][]opStat {
	if len(r.blocks) == 0 {
		return [][]opStat{r.ops}
	}
	var out [][]opStat
	first := 0
	for i, end := range r.blocks {
		if i == len(r.blocks)-1 {
			end = len(r.ops)
		}
		out = append(out, r.ops[first:end])
		first = end
	}
	return out
}

// enough reports whether the run has what its figures need: in a traced
// run a p99 for every per-layer tail, otherwise minBlocks blocks.
func (r *result) enough(traced bool, lay *layers) bool {
	if traced {
		return !lay.short("slice.find", "sigbuild.job", "resultcache.get")
	}
	return len(r.blocks) >= minBlocks
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latencyFigures are the latency percentiles a run reports, by op kind ("",
// every op); a kind the workload has no ops of is skipped.
var latencyFigures = []struct {
	name, kind string
	p          int
}{
	{"op_ms_p50", "", 50}, {"op_ms_p99", "", 99},
	{"hit_ms_p50", "hit", 50}, {"hit_ms_p99", "hit", 99}, {"miss_ms_p50", "miss", 50},
}

// endToEnd computes the gated metrics every workload reports (those named
// in BENCHMARK.json) and the workload-specific ones named after its ops.
// Each throughput and latency figure is computed per block of passes (see
// measure) and the median over blocks is reported, so a burst of
// contention from other tenants of the host that covers a minority of the
// blocks does not move it.
func endToEnd(name string, r *result, setups []float64, rssMB float64) (gated, detail map[string]metric, err error) {
	perBlock := map[string][]float64{}
	var errs []error
	for _, ops := range r.blockOps() {
		var totalS float64
		units := 0
		ms := map[string][]float64{}
		for _, o := range ops {
			totalS += float64(o.ns) / 1e9
			units += o.units
			ms[""] = append(ms[""], float64(o.ns)/1e6)
			ms[o.kind] = append(ms[o.kind], float64(o.ns)/1e6)
		}
		perBlock["ops_per_s"] = append(perBlock["ops_per_s"], ratio(float64(len(ops)), totalS))
		perBlock["units_per_s"] = append(perBlock["units_per_s"], ratio(float64(units), totalS))
		for _, f := range latencyFigures {
			if len(ms[f.kind]) == 0 {
				continue
			}
			v, err := percentile(ms[f.kind], f.p)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", f.name, err))
				continue
			}
			perBlock[f.name] = append(perBlock[f.name], v)
		}
	}
	median := func(into map[string]metric, as, name, unit string) {
		if v, err := percentile(perBlock[name], 50); err == nil {
			into[as] = metric{v, unit}
		}
	}

	setup, err := percentile(setups, 50)
	if err != nil {
		errs = append(errs, fmt.Errorf("setup_s: %w", err))
	}
	gated = map[string]metric{
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
	median(gated, "ops_per_s", "ops_per_s", "1/s")
	median(gated, "op_ms_p50", "op_ms_p50", "ms")
	median(gated, "op_ms_p99", "op_ms_p99", "ms")
	detail = map[string]metric{
		"failed_frac": {ratio(float64(r.failed), float64(r.attempted)), "ratio"},
	}
	op := "app"
	if name == "classify" {
		op = "batch"
		median(detail, "entries_per_s", "units_per_s", "1/s")
	} else {
		median(detail, "apps_per_s", "ops_per_s", "1/s")
	}
	median(detail, op+"_ms_p50", "op_ms_p50", "ms")
	median(detail, op+"_ms_p99", "op_ms_p99", "ms")
	for _, f := range latencyFigures[2:] {
		median(detail, f.name, f.name, "ms")
	}
	return gated, detail, errors.Join(errs...)
}

// layerDef is one per-layer metric of the traced run. A layer the workload
// never calls reports 0.
type layerDef struct {
	name, unit string
	value      func(*layers) (float64, error)
}

func p(sample string, pc int) func(*layers) (float64, error) {
	return func(l *layers) (float64, error) { return l.us(sample, pc) }
}

func avg(sample string, scale float64) func(*layers) (float64, error) {
	return func(l *layers) (float64, error) { return mean(l.samples[sample]) * scale, nil }
}

func per(num, den string, scale float64) func(*layers) (float64, error) {
	return func(l *layers) (float64, error) { return ratio(l.totals[num], l.totals[den]) * scale, nil }
}

var layerDefs = []layerDef{
	{"dex.decode_us_p50", "us", p("dex.decode", 50)},
	{"dex.decode_allocs", "count", avg("dex.decode_allocs", 1)},
	{"ir.validate_us_p50", "us", p("ir.validate", 50)},
	{"callgraph.build_us_p50", "us", p("callgraph.build", 50)},
	{"callgraph.build_allocs", "count", avg("callgraph.build_allocs", 1)},
	{"slice.find_us_p50", "us", p("slice.find", 50)},
	{"slice.find_us_p99", "us", p("slice.find", 99)},
	{"slice.find_allocs", "count", avg("slice.find_allocs", 1)},
	{"slice.transactions", "count", avg("slice.transactions", 1)},
	{"taint.summary_hit_ratio", "ratio", per("taint.summary_hits", "taint.summary_lookups", 1)},
	{"pairing.analyze_us_p50", "us", p("pairing.analyze", 50)},
	{"pairing.verify_us_p50", "us", p("pairing.verify", 50)},
	{"pairing.pairs", "count", avg("pairing.pairs", 1)},
	{"sigbuild.job_us_p50", "us", p("sigbuild.job", 50)},
	{"sigbuild.job_us_p99", "us", p("sigbuild.job", 99)},
	{"sigbuild.busy_ms_per_app", "ms", avg("sigbuild.busy_ns", 1e-6)},
	{"sigbuild.methods_evaluated", "count", avg("sigbuild.methods_evaluated", 1)},
	{"sigbuild.allocs_per_job", "count", per("sigbuild.allocs", "sigbuild.jobs", 1)},
	{"sigbuild.errors", "count", avg("sigbuild.errors", 1)},
	{"txdep.infer_us_p50", "us", p("txdep.infer", 50)},
	{"txdep.deps", "count", avg("txdep.deps", 1)},
	{"core.analyze_us_p50", "us", p("core.analyze", 50)},
	{"core.unattributed_frac", "ratio", func(l *layers) (float64, error) {
		a := l.totals["core.analyze_ns"]
		return ratio(a-l.totals["core.attributed_ns"], a), nil
	}},
	{"report.json_us_p50", "us", p("report.json", 50)},
	{"report.json_bytes", "bytes", avg("report.json_bytes", 1)},
	{"resultcache.hash_us_p50", "us", p("resultcache.hash", 50)},
	{"resultcache.get_us_p50", "us", p("resultcache.get", 50)},
	{"resultcache.get_us_p99", "us", p("resultcache.get", 99)},
	{"resultcache.decode_us_p50", "us", p("resultcache.decode", 50)},
	{"resultcache.hit_ratio", "ratio", per("resultcache.hits", "resultcache.gets", 1)},
	{"resultcache.put_us_p50", "us", p("resultcache.put", 50)},
	{"resultcache.encode_us_p50", "us", p("resultcache.encode", 50)},
	{"resultcache.entry_bytes", "bytes", avg("resultcache.entry_bytes", 1)},
	{"resultcache.lock_wait_ns", "ns", avg("resultcache.lock_wait_ns", 1)},
	{"sigvm.compile_us_p50", "us", p("sigvm.compile", 50)},
	{"trace.classify_ns_per_entry", "ns", per("trace.classify_ns", "trace.entries", 1)},
	{"trace.classify_allocs_per_entry", "count", per("trace.classify_allocs", "trace.entries", 1)},
	{"trace.matched_ratio", "ratio", per("trace.matched", "trace.entries", 1)},
	{"goruntime.gc_cpu_frac", "ratio", per("goruntime.gc_cpu_s", "goruntime.total_cpu_s", 1)},
	{"goruntime.alloc_bytes_per_op", "bytes", per("goruntime.alloc_bytes", "goruntime.ops", 1)},
	{"goruntime.gc_cycles_per_op", "count", per("goruntime.gc_cycles", "goruntime.ops", 1)},
	{"bench.trace_overhead_us", "us", per("bench.overhead_ns", "bench.paired_ops", 1e-3)},
	{"bench.trace_overhead_frac", "ratio", per("bench.overhead_ns", "bench.untraced_ns", 1)},
}

func layerMetrics(lay *layers) (map[string]metric, error) {
	out := make(map[string]metric, len(layerDefs))
	var errs []error
	for _, d := range layerDefs {
		v, err := d.value(lay)
		errs = append(errs, err)
		out[d.name] = metric{v, d.unit}
	}
	return out, errors.Join(errs...)
}

// phaseLayers pairs each phase of the program's own Report.Profile with the
// outside-timed layer sample that covers the same calls.
var phaseLayers = [][2]string{
	{"validate", "ir.validate"}, {"callgraph", "callgraph.build"}, {"slice", "slice.find"},
	{"pairing", "pairing.phase"}, {"sigbuild", "sigbuild.wall"}, {"dedup", ""},
	{"txdep", "txdep.infer"}, {"resultcache", ""},
}

func profileP50s(lay *layers) map[string]float64 {
	out := map[string]float64{}
	for _, pl := range phaseLayers {
		if v, err := lay.us("profile."+pl[0], 50); err == nil && v > 0 {
			out[pl[0]] = v
		}
	}
	return out
}

func merge(ms ...map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

func printTable(w io.Writer, cfg config, host hostStamp, in inputStamp, r *result,
	gated, detail map[string]metric, e2eErr error, perLayer map[string]metric, lay *layers) {

	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, source %.12s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.Go, host.Commit, host.Source)
	fmt.Fprintf(w, "inputs: %s, sha256 %.16s\n", in.Items, in.SHA256)
	fmt.Fprintf(w, "ops: %d attempted, %d failed; latency samples (untraced) %v\n", r.attempted, r.failed, r.samples())
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	fmt.Fprintln(w, "end to end (untraced ops):")
	if e2eErr != nil {
		fmt.Fprintf(w, "  incomplete: %v\n", e2eErr)
	}
	printMetrics(w, merge(gated, detail))
	if perLayer == nil {
		return
	}
	fmt.Fprintln(w, "per layer (traced ops; 0 = layer not called by this workload):")
	printMetrics(w, perLayer)
	fmt.Fprintln(w, "program's own Report.Profile phase p50 beside the outside-timed layer p50 (us):")
	prof := profileP50s(lay)
	for _, pl := range phaseLayers {
		v, ok := prof[pl[0]]
		if !ok {
			continue
		}
		outside := "-"
		if pl[1] != "" {
			if o, err := lay.us(pl[1], 50); err == nil {
				outside = fmt.Sprintf("%.1f (%s)", o, pl[1])
			}
		}
		fmt.Fprintf(w, "  %-12s profile %10.1f   outside %s\n", pl[0], v, outside)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
