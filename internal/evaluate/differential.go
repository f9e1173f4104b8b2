package evaluate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/fuzz"
	"extractocol/internal/obs"
	"extractocol/internal/report"
	"extractocol/internal/resultcache"
	"extractocol/internal/trace"
)

// Differential-testing harness: the seeded generative corpus (corpus.Rand)
// is run through every configuration that must not change analysis output —
// serial vs parallel fan-out, cold vs warm result cache, and budgeted vs
// unbudgeted execution — and every app's report is compared byte-for-byte
// against the serial baseline. A same-seed regeneration pass closes the
// loop: the corpus itself must be reproducible, not just the analysis of
// one in-memory instance of it. A final axis classifies each app's traffic
// through both signature-matcher backends.

// DiffConfig parameterizes one differential run.
type DiffConfig struct {
	// Seed and N select the generated corpus (corpus.Rand(Seed, N)).
	Seed uint64
	N    int
	// Workers is the parallel axis fan-out width (0 means one per CPU).
	Workers int
	// BudgetDeadline is the per-app deadline of the budgeted axis. It must
	// be generous: the axis asserts that merely enabling budget accounting
	// changes nothing, so a tripped budget is a mismatch, not noise.
	// 0 means one minute.
	BudgetDeadline time.Duration
	// Obs and Events attach live telemetry (registry exposition, event
	// stream) to every analysis the harness runs. Neither can affect the
	// compared bytes: CanonicalReport strips Duration and Profile, and the
	// harness itself is the regression gate proving that.
	Obs    *obs.Registry
	Events *obs.EventLog
}

// DiffMismatch is one app whose report diverged from the baseline.
type DiffMismatch struct {
	App    string `json:"app"`
	Detail string `json:"detail"`
}

// DiffAxis is the outcome of one equivalence axis.
type DiffAxis struct {
	Name       string         `json:"name"`
	Desc       string         `json:"desc"`
	Apps       int            `json:"apps"`
	WallNS     int64          `json:"wall_ns"`
	Mismatches []DiffMismatch `json:"mismatches,omitempty"`
}

// DiffResult is the full harness outcome for one seeded corpus.
type DiffResult struct {
	Seed uint64 `json:"seed"`
	N    int    `json:"n"`
	// Digest is the SHA-256 over every baseline report's canonical bytes
	// in corpus order — the cross-run identity of (seed, N, analysis).
	Digest string     `json:"digest"`
	Axes   []DiffAxis `json:"axes"`
}

// Mismatches sums divergences across every axis.
func (r *DiffResult) Mismatches() int {
	n := 0
	for _, a := range r.Axes {
		n += len(a.Mismatches)
	}
	return n
}

// CanonicalReport renders a report's comparison bytes: the text rendering
// followed by the JSON rendering, with the run-varying fields (wall-clock
// duration, per-phase profile) zeroed so two equivalent runs produce equal
// bytes. Diagnostics are kept — a budget trip must surface as a mismatch.
func CanonicalReport(rep *core.Report) ([]byte, error) {
	cp := *rep
	cp.Duration = 0
	cp.Profile = nil
	js, err := report.JSON(&cp)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString(report.Text(&cp))
	b.WriteByte('\n')
	b.Write(js)
	return b.Bytes(), nil
}

// analyzeGen analyzes every generated app and returns canonical report
// bytes in corpus order. mutate (optional) adjusts each app's options
// before analysis; workers <= 1 forces the serial path.
func analyzeGen(apps []*corpus.App, workers int, mutate func(*corpus.App, *core.Options) error) ([][]byte, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(apps) {
		workers = len(apps)
	}
	outs := make([][]byte, len(apps))
	errs := make([]error, len(apps))
	run := func(i int) {
		app := apps[i]
		opts := OptionsFor(app)
		if mutate != nil {
			if err := mutate(app, &opts); err != nil {
				errs[i] = fmt.Errorf("%s: %w", app.Spec.Name, err)
				return
			}
		}
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", app.Spec.Name, err)
			return
		}
		outs[i], errs[i] = CanonicalReport(rep)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					run(i)
				}
			}()
		}
		for i := range apps {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		for i := range apps {
			run(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// compareAxis diffs one axis' outputs against the baseline.
func compareAxis(apps []*corpus.App, baseline, got [][]byte, prefix string) []DiffMismatch {
	var out []DiffMismatch
	for i := range baseline {
		if d := diffBytes(baseline[i], got[i]); d != "" {
			out = append(out, DiffMismatch{App: apps[i].Spec.Name, Detail: prefix + d})
		}
	}
	return out
}

// diffBytes locates the first divergence; "" means equal.
func diffBytes(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Sprintf("reports diverge at byte %d (%d vs %d bytes): %q vs %q",
		i, len(a), len(b), diffWindow(a, i), diffWindow(b, i))
}

// diffWindow excerpts the bytes around the divergence point.
func diffWindow(b []byte, at int) string {
	lo := at - 20
	if lo < 0 {
		lo = 0
	}
	hi := at + 40
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}

// RunDifferential generates the seeded corpus, analyzes it serially for the
// baseline, and replays it through every equivalence axis.
func RunDifferential(cfg DiffConfig) (*DiffResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("differential: corpus size must be positive, got %d", cfg.N)
	}
	if cfg.BudgetDeadline == 0 {
		cfg.BudgetDeadline = time.Minute
	}
	apps := corpus.Rand(cfg.Seed, cfg.N)

	// tel wraps an axis' option mutator so every analysis also carries the
	// run's telemetry hooks (no-ops when cfg.Obs/cfg.Events are nil). A live
	// -ops endpoint therefore sees the harness' collectors come and go.
	tel := func(mutate func(*corpus.App, *core.Options) error) func(*corpus.App, *core.Options) error {
		return func(app *corpus.App, opts *core.Options) error {
			opts.Obs = cfg.Obs
			opts.Events = cfg.Events
			if mutate == nil {
				return nil
			}
			return mutate(app, opts)
		}
	}

	baseline, err := analyzeGen(apps, 1, tel(nil))
	if err != nil {
		return nil, fmt.Errorf("differential baseline: %w", err)
	}
	h := sha256.New()
	for _, b := range baseline {
		h.Write(b)
	}
	res := &DiffResult{Seed: cfg.Seed, N: cfg.N, Digest: hex.EncodeToString(h.Sum(nil))}

	axis := func(name, desc string, f func() ([]DiffMismatch, error)) error {
		start := time.Now()
		mm, err := f()
		if err != nil {
			return fmt.Errorf("differential axis %s: %w", name, err)
		}
		res.Axes = append(res.Axes, DiffAxis{
			Name: name, Desc: desc, Apps: len(apps),
			WallNS: time.Since(start).Nanoseconds(), Mismatches: mm,
		})
		return nil
	}

	// Axis 1: same-seed regeneration. The corpus is rebuilt from scratch
	// and re-analyzed serially; any map-iteration or shared-state leak in
	// the generator shows up here before it can contaminate other axes.
	err = axis("regen", "same-seed regeneration, serial re-analysis", func() ([]DiffMismatch, error) {
		regen := corpus.Rand(cfg.Seed, cfg.N)
		got, err := analyzeGen(regen, 1, tel(nil))
		if err != nil {
			return nil, err
		}
		return compareAxis(apps, baseline, got, ""), nil
	})
	if err != nil {
		return nil, err
	}

	// Axis 2: serial vs parallel fan-out.
	err = axis("parallel", "worker fan-out vs serial baseline", func() ([]DiffMismatch, error) {
		got, err := analyzeGen(apps, cfg.Workers, tel(nil))
		if err != nil {
			return nil, err
		}
		return compareAxis(apps, baseline, got, ""), nil
	})
	if err != nil {
		return nil, err
	}

	// Axis 3: cold store then warm load through a persistent result cache.
	// The warm pass replays every report through the codec round-trip.
	err = axis("cache", "cold-store then warm-load result cache", func() ([]DiffMismatch, error) {
		dir, err := os.MkdirTemp("", "extractocol-diffcache-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cache, err := resultcache.Open(dir)
		if err != nil {
			return nil, err
		}
		withCache := func(app *corpus.App, opts *core.Options) error {
			key, err := resultcache.KeyForProgram(app.Prog, *opts)
			if err != nil {
				return err
			}
			opts.Cache = cache
			opts.CacheKey = key
			return nil
		}
		cold, err := analyzeGen(apps, 1, tel(withCache))
		if err != nil {
			return nil, err
		}
		mm := compareAxis(apps, baseline, cold, "cold: ")
		warm, err := analyzeGen(apps, 1, tel(withCache))
		if err != nil {
			return nil, err
		}
		return append(mm, compareAxis(apps, baseline, warm, "warm: ")...), nil
	})
	if err != nil {
		return nil, err
	}

	// Axis 4: budgeted vs unbudgeted. Budgets are generous by construction;
	// enabling the accounting machinery must not change a single byte, and
	// a tripped budget surfaces as report diagnostics — a mismatch.
	err = axis("budget", "generous budgets vs unbudgeted baseline", func() ([]DiffMismatch, error) {
		got, err := analyzeGen(apps, 1, tel(func(_ *corpus.App, opts *core.Options) error {
			opts.Deadline = cfg.BudgetDeadline
			opts.MaxSliceSteps = 1 << 40
			opts.MaxFixpointIters = 1 << 40
			return nil
		}))
		if err != nil {
			return nil, err
		}
		return compareAxis(apps, baseline, got, ""), nil
	})
	if err != nil {
		return nil, err
	}

	// Axis 5: interpretive signature matcher vs compiled sigvm bytecode.
	// Every app's signatures classify two traffic sources — the recorded
	// trace of a manual fuzz session and seeded labeled entries from
	// trace.RandEntries — through both backends (the VM under parallel
	// fan-out); the full classifications must be byte-identical, and the
	// interpretive verdicts must reproduce the regex-derived labels exactly.
	err = axis("matchvm", "interpretive matcher vs compiled sigvm bytecode", func() ([]DiffMismatch, error) {
		var out []DiffMismatch
		for i, app := range apps {
			aopts := OptionsFor(app)
			aopts.Obs = cfg.Obs
			aopts.Events = cfg.Events
			rep, err := core.Analyze(app.Prog, aopts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", app.Spec.Name, err)
			}
			n := app.NewNetwork()
			if _, err := fuzz.Run(app.Prog, n, fuzz.Manual); err != nil {
				return nil, fmt.Errorf("%s: %w", app.Spec.Name, err)
			}
			entries := trace.FromNetwork(n.Trace())
			recorded := len(entries)
			labeled := trace.RandEntries(cfg.Seed+uint64(i), rep, 50)
			entries = append(entries, trace.Entries(labeled)...)

			interp := trace.Classify(rep, entries, trace.ClassifyOptions{})
			vm := trace.Classify(rep, entries, trace.ClassifyOptions{VM: true, Workers: -1})
			ji, err := json.Marshal(interp)
			if err != nil {
				return nil, err
			}
			jv, err := json.Marshal(vm)
			if err != nil {
				return nil, err
			}
			if d := diffBytes(ji, jv); d != "" {
				out = append(out, DiffMismatch{App: app.Spec.Name, Detail: d})
				continue
			}
			for j, le := range labeled {
				if got := interp.Verdicts[recorded+j]; got != le.WantID {
					out = append(out, DiffMismatch{
						App: app.Spec.Name,
						Detail: fmt.Sprintf("labeled entry %d (%s %s): verdict %d, label %d",
							j, le.Method, le.URL, got, le.WantID),
					})
					break
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FormatDifferential renders the per-axis table plus a verdict line.
func FormatDifferential(r *DiffResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Differential harness: seed %d, %d generated apps\n", r.Seed, r.N)
	fmt.Fprintf(&b, "Corpus report digest: %s\n", r.Digest)
	fmt.Fprintf(&b, "%-10s %-46s %6s %10s %10s\n", "Axis", "Checks", "Apps", "Wall(ms)", "Mismatch")
	for _, a := range r.Axes {
		fmt.Fprintf(&b, "%-10s %-46s %6d %10d %10d\n",
			a.Name, a.Desc, a.Apps, a.WallNS/1e6, len(a.Mismatches))
	}
	shown := 0
	for _, a := range r.Axes {
		for _, m := range a.Mismatches {
			if shown == 10 {
				b.WriteString("  ... further mismatches elided\n")
				return b.String()
			}
			fmt.Fprintf(&b, "  MISMATCH [%s] %s: %s\n", a.Name, m.App, m.Detail)
			shown++
		}
	}
	if n := r.Mismatches(); n == 0 {
		b.WriteString("OK: all axes byte-identical\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d mismatches\n", n)
	}
	return b.String()
}
