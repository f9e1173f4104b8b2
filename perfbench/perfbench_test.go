package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	if _, err := percentile(xs(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := percentile(xs(1000), 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", v)
	}
	if got := tailSamples(99); got != 1000 {
		t.Errorf("tailSamples(99) = %d, want 1000", got)
	}
	if v, err := percentile([]float64{3, 1, 2}, 50); err != nil || v != 2 {
		t.Errorf("median of {3,1,2} = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	digest := func(w workload) string {
		t.Helper()
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		return w.inputs().SHA256
	}
	batches := func(seed uint64) workload { return &classify{seed: seed} }
	if a, b := digest(batches(7)), digest(batches(7)); a != b {
		t.Errorf("classify seed 7 gave input digests %s and %s", a, b)
	}
	if a, b := digest(batches(7)), digest(batches(8)); a == b {
		t.Error("classify seeds 7 and 8 gave the same input digest")
	}
	dir := t.TempDir()
	cache := func(seed uint64) workload { return &rescan{seed: seed, dir: dir} }
	if a, b := digest(cache(7)), digest(cache(7)); a != b {
		t.Errorf("rescan seed 7 gave input digests %s and %s", a, b)
	}
	if a, b := digest(cache(7)), digest(cache(8)); a == b {
		t.Error("rescan seeds 7 and 8 gave the same input digest")
	}
}

func TestWrongVerdictRaisesFailedFrac(t *testing.T) {
	w := &classify{seed: 3}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	failedFrac := func() float64 {
		t.Helper()
		r, err := measure(w, time.Millisecond, nil, newLayers())
		if err != nil {
			t.Fatal(err)
		}
		if r.attempted == 0 {
			t.Fatal("no ops ran")
		}
		_, detail, _ := endToEnd("classify", r, []float64{1}, 1)
		return detail["failed_frac"].Value
	}
	if f := failedFrac(); f != 0 {
		t.Fatalf("failed_frac = %v with correct labels", f)
	}
	w.want[0][5] = w.want[0][5] + 1 // one wrong reference verdict
	if f, want := failedFrac(), 1/float64(w.passLen()); f != want {
		t.Errorf("failed_frac = %v after corrupting one label of the first batch, want %v (1 of %d batches per pass)",
			f, want, w.passLen())
	}
}

// TestPairsCheckBothRuns runs traced pairs: both runs of each pair must
// pass their checks, so the state reset between them works (a rescan miss
// misses again) and cold's pass digest takes each paper report once.
func TestPairsCheckBothRuns(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // cold reads the pinned digest
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir("perfbench") })
	c := &cold{seed: 1}
	rs := &rescan{seed: 1, dir: t.TempDir()}
	for _, w := range []workload{c, rs} {
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		defer w.close()
	}
	var rescanOps []int // the stream up to its second miss
	for i, misses := 0, 0; misses < 2; i++ {
		rescanOps = append(rescanOps, i)
		if rs.stream[i].miss {
			misses++
		}
	}
	for _, tc := range []struct {
		name string
		w    workload
		ops  []int
	}{
		{"cold", c, seq(c.nPaper)},
		{"rescan", rs, rescanOps},
	} {
		r, lay := &result{}, newLayers()
		tr := newTracer()
		for _, i := range tc.ops {
			if err := r.pair(tc.w, i, tr, lay); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.attributePending(tc.w, lay); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted != 2*len(tc.ops) || r.pairs != len(tc.ops) {
			t.Errorf("%s: %d of %d runs failed over %d pairs: %v", tc.name, r.failed, r.attempted, r.pairs, r.errs)
		}
		if got := len(lay.samples["dex.decode_allocs"]); got != len(tc.ops) {
			t.Errorf("%s: %d attribution passes for %d traced runs", tc.name, got, len(tc.ops))
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// the program prints in step: the result line must carry exactly the
// metrics the file declares, with the same units.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}

	r := &result{}
	for i := 0; i < tailSamples(99); i++ {
		r.ops = append(r.ops, opStat{"app", int64(i + 1), 1})
	}
	gated, _, err := endToEnd("cold", r, []float64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	if len(want) != len(gated) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(want), len(gated))
	}
	for name, m := range gated {
		if want[name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program unit %q", name, want[name], m.Unit)
		}
	}

	var declared, printed []string
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, d := range layerDefs {
		printed = append(printed, d.name+" "+d.unit)
	}
	sort.Strings(declared)
	sort.Strings(printed)
	if !slices.Equal(declared, printed) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", declared, printed)
	}
}
