// Command evaluate regenerates the paper's evaluation artifacts from the
// corpus: Tables 1-6 and Figures 6-7 of "Enabling Automatic Protocol
// Behavior Analysis for Android Applications" (CoNEXT 2016), plus the
// obfuscation-invariance check, the asynchronous-heuristic ablation, and
// analysis timing.
//
// Usage:
//
//	evaluate                     run everything
//	evaluate -only table1        one artifact (table1, table2, table3,
//	                             table4, table5, table6, figure6, figure7,
//	                             validity, obfuscation, ablation, timing)
//	evaluate -profile            emit per-app and corpus-wide per-phase
//	                             observability breakdowns as JSON, plus
//	                             the parallel fan-out speedup and, when a
//	                             shared report cache is in use, its
//	                             contention gauges (lock-wait time,
//	                             same-key races, install retries)
//	evaluate -serial             analyze apps one at a time instead of in
//	                             parallel
//	evaluate -deadline 30s       bound each app's analysis; apps that
//	                             exceed it ship degraded reports with
//	                             diagnostics, and apps that fail outright
//	                             are reported on stderr without aborting
//	                             the rest of the corpus
//	evaluate -trace corpus.json  write one Chrome trace-event JSON timeline
//	                             covering every corpus app (one process
//	                             track per app; load in Perfetto)
//	evaluate -cache dir          persistent report cache shared by all
//	                             corpus apps; a warm re-evaluation serves
//	                             every unchanged app's report from disk
//	evaluate -gen 1729:500       differential-testing harness: generate a
//	                             500-app corpus from seed 1729 and assert
//	                             byte-identical reports across every
//	                             equivalence axis (same-seed regeneration,
//	                             serial/parallel, cold/warm cache,
//	                             budgeted/unbudgeted, interpretive/compiled
//	                             signature matcher); exits nonzero on any
//	                             mismatch
//	evaluate -ops addr           serve the live ops plane on addr (e.g.
//	                             :9090 or 127.0.0.1:0): /metrics in
//	                             Prometheus text format, /healthz, and
//	                             /debug/pprof/*; the bound address is
//	                             printed to stderr; composes with every
//	                             mode including -gen, so a long
//	                             differential run can be watched live
//	evaluate -events file        append a structured JSONL event stream
//	                             (run, phase, cache and diagnostic events
//	                             with monotonic sequence numbers) to file
//	evaluate -flight             arm the crash flight recorder: panic and
//	                             deadline diagnostics carry each worker's
//	                             most recent spans
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"extractocol/internal/evaluate"
	"extractocol/internal/obs"
	"extractocol/internal/ops"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.only, "only", "", "single artifact to produce")
	flag.BoolVar(&cfg.profile, "profile", false, "emit per-phase observability JSON")
	flag.BoolVar(&cfg.serial, "serial", false, "disable per-app parallelism")
	flag.DurationVar(&cfg.deadline, "deadline", 0, "per-app analysis deadline (0 = unlimited)")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a corpus-wide Chrome trace-event JSON timeline to this file")
	flag.StringVar(&cfg.cacheDir, "cache", "", "persistent report cache directory (empty = off)")
	flag.StringVar(&cfg.gen, "gen", "", "run the differential harness over a generated corpus, as seed:N (e.g. 1729:500)")
	flag.StringVar(&cfg.opsAddr, "ops", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	flag.StringVar(&cfg.eventsFile, "events", "", "append the structured JSONL event stream to this file (empty = off)")
	flag.BoolVar(&cfg.flight, "flight", false, "arm the crash flight recorder (recent-span dumps in diagnostics)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// config carries every flag into run; tests construct it directly.
type config struct {
	only       string
	profile    bool
	serial     bool
	deadline   time.Duration
	traceFile  string
	cacheDir   string
	gen        string
	opsAddr    string
	eventsFile string
	flight     bool
}

// telemetry is the live ops plane behind -ops/-events: a registry for
// exposition, the HTTP listener, and the structured event log. The zero
// value (no flags) is fully off and costs nothing on the analysis path.
type telemetry struct {
	reg *obs.Registry
	srv *ops.Server
	ev  *obs.EventLog
}

// openTelemetry starts whatever the -ops/-events flags ask for. The bound
// ops address is announced on stderr (stdout carries the artifacts) so
// scripts can discover a :0 listener.
func openTelemetry(opsAddr, eventsFile string) (*telemetry, error) {
	t := &telemetry{}
	if opsAddr != "" {
		t.reg = obs.NewRegistry()
		srv, err := ops.Serve(opsAddr, t.reg)
		if err != nil {
			return nil, fmt.Errorf("ops: %w", err)
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "ops: serving on %s\n", srv.URL())
	}
	if eventsFile != "" {
		f, err := os.Create(eventsFile)
		if err != nil {
			t.srv.Close()
			return nil, fmt.Errorf("events: %w", err)
		}
		t.ev = obs.NewEventLog(f)
	}
	return t, nil
}

// close shuts the listener down and flushes the event log; the first
// error wins.
func (t *telemetry) close() error {
	err := t.srv.Close()
	if e := t.ev.Close(); err == nil {
		err = e
	}
	return err
}

func run(cfg config) (err error) {
	tel, err := openTelemetry(cfg.opsAddr, cfg.eventsFile)
	if err != nil {
		return err
	}
	defer func() {
		if e := tel.close(); err == nil {
			err = e
		}
	}()
	if cfg.gen != "" {
		return runDifferential(cfg, tel)
	}
	return runArtifacts(cfg, tel)
}

// runDifferential parses "seed:N" and runs the differential-testing
// harness; any cross-axis mismatch is an error (nonzero exit).
func runDifferential(cfg config, tel *telemetry) error {
	seedStr, nStr, ok := strings.Cut(cfg.gen, ":")
	if !ok {
		return fmt.Errorf("-gen wants seed:N, got %q", cfg.gen)
	}
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return fmt.Errorf("-gen seed: %w", err)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 {
		return fmt.Errorf("-gen wants a positive app count, got %q", nStr)
	}
	res, err := evaluate.RunDifferential(evaluate.DiffConfig{
		Seed: seed, N: n, BudgetDeadline: cfg.deadline,
		Obs: tel.reg, Events: tel.ev,
	})
	if err != nil {
		return err
	}
	fmt.Print(evaluate.FormatDifferential(res))
	if m := res.Mismatches(); m > 0 {
		return fmt.Errorf("%d differential mismatches", m)
	}
	return nil
}

func runArtifacts(cfg config, tel *telemetry) error {
	only := cfg.only
	want := func(name string) bool { return only == "" || only == name }

	var results []*evaluate.AppResult
	var pstats *evaluate.ParallelStats
	needCorpus := only == "" || only == "table1" || only == "table2" ||
		only == "figure6" || only == "figure7" || only == "validity" || only == "timing"
	if needCorpus || cfg.profile || cfg.traceFile != "" {
		rcfg := evaluate.RunConfig{
			Deadline: cfg.deadline, Trace: cfg.traceFile != "", CacheDir: cfg.cacheDir,
			Obs: tel.reg, Events: tel.ev, Flight: cfg.flight,
		}
		if cfg.serial {
			rcfg.Workers = 1
		}
		var err error
		results, pstats, err = evaluate.RunAllConfig(rcfg)
		if err != nil {
			return err
		}
		// Per-app failures degrade the corpus run instead of aborting it:
		// name them on stderr and evaluate whatever completed.
		for _, ae := range pstats.Errors {
			fmt.Fprintf(os.Stderr, "evaluate: %s failed: %s\n", ae.App, ae.Err)
		}
	}

	if cfg.profile {
		if err := printProfiles(results, pstats); err != nil {
			return err
		}
	}
	if cfg.traceFile != "" {
		if err := writeCorpusTrace(cfg.traceFile, results); err != nil {
			return err
		}
	}

	if want("table1") {
		fmt.Println(evaluate.FormatTable1(evaluate.Table1(results)))
	}
	if want("figure6") {
		fmt.Println(evaluate.FormatFigure6(
			evaluate.Figure6(results, true), evaluate.Figure6(results, false)))
	}
	if want("figure7") {
		fmt.Println(evaluate.FormatFigure7(
			evaluate.Figure7(results, true), evaluate.Figure7(results, false)))
	}
	if want("table2") {
		fmt.Println(evaluate.FormatTable2(
			evaluate.Table2(results, true), evaluate.Table2(results, false)))
	}
	if want("validity") {
		v := evaluate.Validity(results)
		fmt.Printf("Signature validity: %d/%d signatures with traffic matched; %d pairs reconstructed; %d unmatched traces\n\n",
			v.SigsValid, v.SigsWithTraffic, v.Pairs, v.UnmatchedTraces)
	}
	if want("table3") {
		out, err := evaluate.Table3()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table4") {
		out, err := evaluate.Table4()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("table5") {
		rows, rep, err := evaluate.Table5()
		if err != nil {
			return err
		}
		fmt.Println(evaluate.FormatTable5(rows, rep))
	}
	if want("table6") {
		out, err := evaluate.Table6()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("obfuscation") {
		identical, total, err := evaluate.ObfuscationCheck()
		if err != nil {
			return err
		}
		fmt.Printf("Obfuscation check: %d/%d open-source apps yield identical signatures after ProGuard-style renaming\n\n",
			identical, total)
	}
	if want("ablation") {
		disabled, enabled, err := evaluate.AsyncHeuristicAblation()
		if err != nil {
			return err
		}
		fmt.Printf("Async-event heuristic ablation (Weather Notification): %d request keywords disabled, %d enabled\n\n",
			disabled, enabled)
	}
	if want("timing") {
		fmt.Println(evaluate.Timing(results))
	}
	if want("slicefraction") || only == "" {
		frac, err := evaluate.DiodeSliceFraction()
		if err != nil {
			return err
		}
		fmt.Printf("Diode slice fraction (Fig. 3): %.1f%% of app instructions\n", frac*100)
	}
	return nil
}

// printProfiles emits the observability view of a corpus evaluation: one
// per-phase breakdown per app, the corpus-wide aggregate, and the parallel
// fan-out statistics, as one indented JSON document.
func printProfiles(results []*evaluate.AppResult, pstats *evaluate.ParallelStats) error {
	type appProfile struct {
		App        string       `json:"app"`
		DurationMS int64        `json:"duration_ms"`
		Profile    *obs.Profile `json:"profile"`
	}
	doc := struct {
		Apps     []appProfile            `json:"apps"`
		Corpus   *obs.Profile            `json:"corpus"`
		Parallel *evaluate.ParallelStats `json:"parallel,omitempty"`
	}{Corpus: evaluate.CorpusProfile(results), Parallel: pstats}
	for _, r := range results {
		doc.Apps = append(doc.Apps, appProfile{
			App:        r.App.Spec.Name,
			DurationMS: r.Report.Duration.Milliseconds(),
			Profile:    r.Report.Profile,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// writeCorpusTrace merges every app's span timeline into one Chrome
// trace-event document, one process track per app in corpus order.
func writeCorpusTrace(path string, results []*evaluate.AppResult) error {
	merged := &obs.Trace{DisplayTimeUnit: "ms"}
	for i, r := range results {
		if r.Tracer == nil {
			continue
		}
		merged.Merge(r.Tracer.Export(int64(i+1), r.App.Spec.Name))
	}
	data, err := merged.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
