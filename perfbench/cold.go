package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/report"
)

// coldGenerated is how many seeded apps join the 34-app paper corpus in
// cold: enough that per-app fixed cost and all seven protocol scenarios
// show, few enough that a pass stays near a second. The median op is one
// of them, so the seed moves op_ms_p50: with 200 apps its spread over ten
// seeds was twice that of ops_per_s, and with 800 the two match. The
// paper apps still set the tail: every generated app takes under a quarter
// of the ninth-largest paper app's time.
const coldGenerated = 800

// pinnedDigestPath is the committed SHA-256 over the paper corpus's
// canonical default reports. The benchmark only reads it.
const pinnedDigestPath = "testdata/report_digest.json"

// cold analyzes every app from its container bytes with default options
// and renders the JSON report. The pipeline layers do almost all the work;
// the result cache and the matcher VM stay idle. The 34 paper apps are
// large and set the tail; the generated apps are small and varied and
// expose per-app fixed cost.
type cold struct {
	seed   uint64
	apps   []*corpus.App // paper corpus in corpus order, then generated
	bins   [][]byte
	nPaper int
	pinned string
	canon  hash.Hash // canonical paper reports of the current pass
	// The paper op checked last and its canonical report: the traced run
	// checks op i twice in a row, and the second report must equal the
	// first rather than enter the pass digest again.
	lastPaper int
	lastCanon []byte
}

type coldOut struct {
	rep  *core.Report
	json []byte
}

func (w *cold) setup(*tracer) error {
	pinned, err := readPinnedDigest()
	if err != nil {
		return err
	}
	w.pinned = pinned
	paper := corpus.Apps()
	w.nPaper = len(paper)
	w.apps = append(paper, corpus.Rand(w.seed, coldGenerated)...)
	w.bins, err = encodeApps(w.apps)
	w.canon = sha256.New()
	w.lastPaper = -1
	return err
}

func (w *cold) passLen() int    { return len(w.apps) }
func (w *cold) kind(int) string { return "app" }
func (w *cold) units(int) int   { return 1 }
func (w *cold) reset() error    { return nil }
func (w *cold) close()          {}

func (w *cold) inputs() inputStamp {
	d := newDigest()
	d.bytes(w.bins...)
	return inputStamp{Items: fmt.Sprintf("%d paper + %d generated apps", w.nPaper, len(w.apps)-w.nPaper),
		SHA256: d.hex()}
}

func (w *cold) run(i int, tr *tracer) (any, error) {
	tr.begin("dex.decode")
	p, err := dex.Decode(w.bins[i])
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("core.analyze")
	rep, err := core.Analyze(p, core.NewOptions())
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("report.json")
	js, err := report.JSON(rep)
	tr.end()
	return coldOut{rep, js}, err
}

// check holds every report to the spec-derived count of statically
// visible transactions per method, and each pass's paper reports to the
// committed corpus digest.
func (w *cold) check(i int, out any) error {
	rep := out.(coldOut).rep
	if err := checkCounts(rep, w.apps[i].Truth.StaticVis); err != nil {
		return err
	}
	if i >= w.nPaper {
		return nil
	}
	c, err := evaluate.CanonicalReport(rep)
	if err != nil {
		return err
	}
	if i == w.lastPaper {
		if !bytes.Equal(c, w.lastCanon) {
			return fmt.Errorf("%s: report differs between two runs of the same op", rep.Package)
		}
		return nil
	}
	w.lastPaper, w.lastCanon = i, c
	if i == 0 {
		w.canon.Reset()
	}
	w.canon.Write(c)
	if i == w.nPaper-1 {
		if got := hex.EncodeToString(w.canon.Sum(nil)); got != w.pinned {
			return fmt.Errorf("paper corpus digest %s, pinned %s", got, w.pinned)
		}
	}
	return nil
}

func (w *cold) attribute(i int, out any, spans []span, lay *layers) error {
	o := out.(coldOut)
	lay.add("report.json_bytes", float64(len(o.json)))
	addProfile(o.rep, lay)
	return replayAnalysis(w.bins[i], o.rep, dur(spans, "core.analyze"), lay)
}

// checkCounts compares a report's unique request signatures per HTTP
// method with the ground truth derived from the app's spec.
func checkCounts(rep *core.Report, want map[string]int) error {
	got := rep.CountByMethod()
	for m, n := range want {
		if n != 0 && got[m] != n {
			return fmt.Errorf("%s: %s signatures %d, truth %d", rep.Package, m, got[m], n)
		}
	}
	for m, n := range got {
		if want[m] != n {
			return fmt.Errorf("%s: %s signatures %d, truth %d", rep.Package, m, n, want[m])
		}
	}
	return nil
}

// addProfile files the program's own per-phase timings, shown beside the
// outside-timed layers for comparison only.
func addProfile(rep *core.Report, lay *layers) {
	if rep.Profile == nil {
		return
	}
	for _, ph := range rep.Profile.Phases {
		lay.add("profile."+ph.Name, float64(ph.DurationNS))
	}
}

func readPinnedDigest() (string, error) {
	data, err := os.ReadFile(pinnedDigestPath)
	if err != nil {
		return "", fmt.Errorf("read pinned digest: %w", err)
	}
	var d struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &d); err != nil || d.Digest == "" {
		return "", fmt.Errorf("parse %s: %v", pinnedDigestPath, err)
	}
	return d.Digest, nil
}

// encodeApps serializes each app into the .apkb container bytes the
// analyzer is given.
func encodeApps(apps []*corpus.App) ([][]byte, error) {
	bins := make([][]byte, len(apps))
	for i, a := range apps {
		b, err := dex.Encode(a.Prog)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", a.Spec.Name, err)
		}
		bins[i] = b
	}
	return bins, nil
}
