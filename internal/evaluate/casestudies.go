package evaluate

import (
	"fmt"
	"strings"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/obfuscate"
	"extractocol/internal/report"
	"extractocol/internal/siglang"
)

// Table3 reproduces the Radio reddit case study: six reconstructed
// transactions and the login -> vote/save dependency graph.
func Table3() (string, error) {
	app := corpus.RadioReddit()
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 3: Radio reddit reconstructed transactions\n")
	b.WriteString(report.Text(rep))
	b.WriteString("\nDependency graph:\n")
	b.WriteString(report.DOT(rep))
	return b.String(), nil
}

// Table4 reproduces the TED case study: the ad chain, the DB-mediated
// dependencies and the media-player sinks.
func Table4() (string, error) {
	app := corpus.TED()
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 4: TED selected transactions\n")
	for _, tx := range rep.Transactions {
		uri := siglang.RegexBody(tx.Request.URI)
		if !strings.Contains(uri, "ted\\.example") && !strings.Contains(uri, "facebook") && uri != ".*" &&
			!strings.Contains(uri, `(?:`) {
			continue
		}
		kind := "S"
		if uri == ".*" || strings.Contains(uri, `(?:`) {
			kind = "D"
		}
		fmt.Fprintf(&b, "  #%d (%s) %s %s", tx.ID, kind, tx.Request.Method, uri)
		if len(tx.Sinks) > 0 {
			fmt.Fprintf(&b, "  -> %s", strings.Join(tx.Sinks, ","))
		}
		b.WriteString("\n")
	}
	b.WriteString("Dependencies:\n")
	for _, d := range rep.Deps {
		fmt.Fprintf(&b, "  #%d.%s -> #%d.%s via %s\n", d.From, d.FromField, d.To, d.ToPart, d.Via)
	}
	return b.String(), nil
}

// Table5Row is one measured Kayak category.
type Table5Row struct {
	Method string
	Prefix string
	Count  int
}

// Table5 reproduces the Kayak API survey: the analysis scoped to com.kayak
// classes, grouped by URI prefix.
func Table5() ([]Table5Row, *core.Report, error) {
	app := corpus.Kayak()
	opts := core.NewOptions()
	opts.ScopePrefix = "com.kayak."
	rep, err := core.Analyze(app.Prog, opts)
	if err != nil {
		return nil, nil, err
	}
	var rows []Table5Row
	for _, g := range report.GroupByPrefix(rep) {
		rows = append(rows, Table5Row{Method: g.Method, Prefix: g.Prefix, Count: g.Count})
	}
	return rows, rep, nil
}

// FormatTable5 renders the category table.
func FormatTable5(rows []Table5Row, rep *core.Report) string {
	var b strings.Builder
	total := map[string]int{}
	for _, tx := range rep.Transactions {
		total[tx.Request.Method]++
	}
	fmt.Fprintf(&b, "Table 5: Kayak API summary (scoped to com.kayak): %d GET, %d POST\n",
		total["GET"], total["POST"])
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s %-28s %3d APIs\n", r.Method, r.Prefix, r.Count)
	}
	return b.String()
}

// Table6 extracts the three flight-search request signatures the paper
// lists, plus the app-specific User-Agent header.
func Table6() (string, error) {
	_, rep, err := Table5()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Table 6: selected Kayak request signatures\n")
	for _, tx := range rep.Transactions {
		uri := siglang.RegexBody(tx.Request.URI)
		interesting := strings.Contains(uri, "authajax") ||
			strings.Contains(uri, "flight/start") || strings.Contains(uri, "flight/poll")
		if !interesting {
			continue
		}
		fmt.Fprintf(&b, "  %s %s\n", tx.Request.Method, uri)
		if tx.Request.BodyKind != "" {
			fmt.Fprintf(&b, "    body: %s\n", siglang.RegexBody(tx.Request.Body))
		}
		for _, h := range tx.Request.Headers {
			fmt.Fprintf(&b, "    header %s: %s\n", h.Key, siglang.RegexBody(h.Val))
		}
	}
	return b.String(), nil
}

// ObfuscationCheck verifies the §5.1 claim: obfuscating an APK with a
// ProGuard-like renamer leaves Extractocol's output unchanged. It returns
// the number of open-source apps whose signature sets were identical.
func ObfuscationCheck() (identical, total int, err error) {
	for _, app := range corpus.OpenSource() {
		plain, aerr := core.Analyze(app.Prog, OptionsFor(app))
		if aerr != nil {
			return 0, 0, fmt.Errorf("%s: %w", app.Spec.Name, aerr)
		}
		obf := mustApp(app.Spec.Name)
		obfuscate.Apply(obf.Prog, obfuscate.Options{KeepEntryPoints: true})
		after, aerr := core.Analyze(obf.Prog, OptionsFor(app))
		if aerr != nil {
			return 0, 0, fmt.Errorf("%s (obfuscated): %w", app.Spec.Name, aerr)
		}
		total++
		if sigSet(plain) == sigSet(after) {
			identical++
		}
	}
	return identical, total, nil
}

func mustApp(name string) *corpus.App {
	a, err := corpus.ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// sigSet canonicalizes a report's request signatures for comparison.
func sigSet(r *core.Report) string {
	var sigs []string
	for _, tx := range r.Transactions {
		sigs = append(sigs, tx.Request.Method+" "+siglang.Canon(tx.Request.URI)+" "+
			siglang.Canon(tx.Request.Body))
	}
	// Sort for set semantics.
	for i := 1; i < len(sigs); i++ {
		for j := i; j > 0 && sigs[j] < sigs[j-1]; j-- {
			sigs[j], sigs[j-1] = sigs[j-1], sigs[j]
		}
	}
	return strings.Join(sigs, "\n")
}

// DiodeSliceFraction measures the fraction of Diode's code contained in
// slices (the paper reports 6.3% for Fig. 3).
func DiodeSliceFraction() (float64, error) {
	app := corpus.Diode()
	rep, err := core.Analyze(app.Prog, OptionsFor(app))
	if err != nil {
		return 0, err
	}
	return rep.SliceFraction, nil
}

// AsyncHeuristicAblation reproduces the §5.1 RRD observation: with the
// asynchronous-event heuristic disabled, keywords constructed in another
// handler are lost; enabling it recovers them. It returns the request
// keyword counts for the weather-notification-style flow under both
// settings.
func AsyncHeuristicAblation() (disabled, enabled int, err error) {
	app := mustApp("Weather Notification")
	for _, hops := range []int{0, 1} {
		opts := core.NewOptions()
		opts.MaxAsyncHops = hops
		rep, aerr := core.Analyze(app.Prog, opts)
		if aerr != nil {
			return 0, 0, aerr
		}
		kw := map[string]bool{}
		for _, tx := range rep.Transactions {
			for _, k := range siglang.Keywords(tx.Request.URI) {
				kw[k] = true
			}
			for _, k := range siglang.Keywords(tx.Request.Body) {
				kw[k] = true
			}
		}
		if hops == 0 {
			disabled = len(kw)
		} else {
			enabled = len(kw)
		}
	}
	return disabled, enabled, nil
}
