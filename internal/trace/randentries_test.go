// Labeled-traffic generator tests: RandEntries must be deterministic per
// seed, its labels must be exact ground truth (computed from the regex
// specification, not from a matcher), and both matcher backends — at any
// worker count — must reproduce those labels verbatim.
package trace

import (
	"encoding/json"
	"reflect"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/fuzz"
	"extractocol/internal/sigvm"
)

// genReports analyzes a few seeded generated apps.
func genReports(t testing.TB, seed uint64, n int) []*core.Report {
	t.Helper()
	var reps []*core.Report
	for _, app := range corpus.Rand(seed, n) {
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Spec.Name, err)
		}
		reps = append(reps, rep)
	}
	return reps
}

func TestRandEntriesDeterministic(t *testing.T) {
	rep := genReports(t, 11, 1)[0]
	a := RandEntries(42, rep, 100)
	b := RandEntries(42, rep, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different labeled traffic")
	}
	if len(a) != 100 {
		t.Fatalf("generated %d entries, want 100", len(a))
	}
	c := RandEntries(43, rep, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traffic")
	}
}

func TestRandEntriesMixesVerdicts(t *testing.T) {
	rep := genReports(t, 12, 1)[0]
	if len(rep.Transactions) == 0 {
		t.Skip("generated app yielded no transactions")
	}
	labeled := RandEntries(7, rep, 300)
	matching, misses := 0, 0
	for _, le := range labeled {
		if le.WantID != 0 {
			matching++
		} else {
			misses++
		}
	}
	if matching == 0 || misses == 0 {
		t.Fatalf("degenerate corpus: %d matching, %d near-miss", matching, misses)
	}
}

// TestClassifyReproducesLabels is the exact-verdict gate: every entry's
// best-match transaction must equal the label, for the interpretive
// backend and the VM backend at every fan-out width — serial, 2, 3 and 4
// workers and one more worker than entries — and all full results must
// be byte-identical. The second row's entry count is divisible by none of
// the widths, so every chunking leaves a short last chunk.
func TestClassifyReproducesLabels(t *testing.T) {
	for _, row := range []struct {
		seed    uint64
		entries int
	}{
		{seed: 21, entries: 250},
		{seed: 22, entries: 251},
	} {
		for i, rep := range genReports(t, row.seed, 4) {
			labeled := RandEntries(uint64(100+i), rep, row.entries)
			entries := Entries(labeled)
			bundle := sigvm.Compile(rep)
			interp := Classify(rep, entries, ClassifyOptions{})
			for j, le := range labeled {
				if interp.Verdicts[j] != le.WantID {
					t.Fatalf("seed %d app %d entry %d (%s %s): interp verdict %d, label %d",
						row.seed, i, j, le.Method, le.URL, interp.Verdicts[j], le.WantID)
				}
			}
			ji := mustJSON(t, interp)
			for _, w := range []int{1, 2, 3, 4, len(entries) + 1} {
				jv := mustJSON(t, Classify(rep, entries, ClassifyOptions{VM: true, Bundle: bundle, Workers: w}))
				if ji != jv {
					t.Fatalf("seed %d app %d: interp and %d-worker VM classifications differ:\n%s\n%s",
						row.seed, i, w, ji, jv)
				}
			}
		}
	}
}

// TestMatchReportVMEquivalence drives both backends over real interpreter
// traffic (not generated entries) from seeded apps and demands identical
// MatchResults.
func TestMatchReportVMEquivalence(t *testing.T) {
	for _, app := range corpus.Rand(31, 4) {
		rep, err := core.Analyze(app.Prog, core.NewOptions())
		if err != nil {
			t.Fatalf("%s: %v", app.Spec.Name, err)
		}
		n := app.NewNetwork()
		if _, err := fuzz.Run(app.Prog, n, fuzz.Manual); err != nil {
			t.Fatalf("%s: %v", app.Spec.Name, err)
		}
		entries := FromNetwork(n.Trace())
		want := MatchReport(rep, entries)
		got := &Classify(rep, entries, ClassifyOptions{VM: true}).MatchResult
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: backends disagree:\ninterp %+v\nvm     %+v", app.Spec.Name, want, got)
		}
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
