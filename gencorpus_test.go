// Seeded generative corpus: scenario coverage, generator determinism, and
// the default-report pin. The scenario tests hold each protocol-surface
// extension (gzip and chunked transfer encodings, multipart uploads,
// cookie sessions, token-refresh chains, pagination cursors, long-poll
// retry loops) to a
// concrete analysis outcome — non-empty signatures and, for the session
// scenarios, inter-transaction dependency edges. The determinism tests
// pin that corpus.Rand is a pure function of its seed, and the digest
// test pins the default 34-app corpus reports byte-for-byte so opt-in
// report layers (the security lens) can never leak into default output.
package extractocol

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/obfuscate"
	"extractocol/internal/report"
	"extractocol/internal/siglang"
	"extractocol/internal/txdep"
)

// scenarioApp generates a minimal one-scenario app: one baseline GET plus
// the scenario's transactions, so assertions cannot hit the wrong tx.
func scenarioApp(t *testing.T, scenario string) *core.Report {
	t.Helper()
	spec := corpus.AppSpec{
		Name: "scen-" + scenario, Package: "scen." + scenario,
		Host: "api.scen.example.com", Protocol: "HTTPS", Library: "okhttp",
		Counts:    map[string]corpus.MethodCounts{"GET": {E: 1, M: 1, A: 1}},
		Scenarios: []string{scenario},
	}
	app := corpus.Generate(spec)
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// txWithPath finds the transaction whose reconstructed URI contains the
// path fragment.
func txWithPath(t *testing.T, rep *core.Report, fragment string) *core.Transaction {
	t.Helper()
	for _, tx := range rep.Transactions {
		if strings.Contains(siglang.RegexBody(tx.Request.URI), fragment) {
			return tx
		}
	}
	t.Fatalf("no transaction with %q in its URI; report:\n%s", fragment, report.Text(rep))
	return nil
}

// depsTo lists the dependency edges arriving at one transaction.
func depsTo(rep *core.Report, id int) []txdep.Dep {
	var out []txdep.Dep
	for _, d := range rep.Deps {
		if d.To == id {
			out = append(out, d)
		}
	}
	return out
}

func TestScenarioGzipSignature(t *testing.T) {
	rep := scenarioApp(t, "gzip")
	tx := txWithPath(t, rep, "/gz/")
	if tx.Response == nil || tx.Response.BodyKind != "json" {
		t.Fatalf("gzip response not reconstructed as json: %+v", tx.Response)
	}
	if keys := siglang.Keywords(&siglang.JSON{Root: tx.Response.JSON}); len(keys) == 0 {
		t.Error("gzip response signature has no keys: decompression decorator lost the body")
	}
	if !tx.Paired {
		t.Error("gzip transaction not paired with its response")
	}
}

func TestScenarioChunkedSignature(t *testing.T) {
	rep := scenarioApp(t, "chunked")
	tx := txWithPath(t, rep, "/stream/")
	if tx.Response == nil || tx.Response.BodyKind != "json" {
		t.Fatalf("chunked response not reconstructed as json: %+v", tx.Response)
	}
	if keys := siglang.Keywords(&siglang.JSON{Root: tx.Response.JSON}); len(keys) == 0 {
		t.Error("chunked response signature has no keys: buffered-reader decorator lost the body")
	}
}

func TestScenarioMultipartSignature(t *testing.T) {
	rep := scenarioApp(t, "multipart")
	tx := txWithPath(t, rep, "/upload/")
	if tx.Request.Method != "POST" {
		t.Errorf("multipart upload method = %q, want POST", tx.Request.Method)
	}
	if tx.Request.BodyKind != "multipart" {
		t.Fatalf("body kind = %q, want multipart", tx.Request.BodyKind)
	}
	if body := siglang.Regex(tx.Request.Body); !strings.Contains(body, "=") {
		t.Errorf("multipart body signature %q lists no parts", body)
	}
}

func TestScenarioTokenRefreshChain(t *testing.T) {
	rep := scenarioApp(t, "token")
	secure := txWithPath(t, rep, "/secure/")
	refresh := txWithPath(t, rep, "/oauth/refresh")

	// The authenticated call must consume the token grant's response field
	// through its Authorization header.
	var viaHeader bool
	for _, d := range depsTo(rep, secure.ID) {
		if d.FromField == "access_token" && d.ToPart == "header:Authorization" {
			viaHeader = true
		}
	}
	if !viaHeader {
		t.Errorf("no access_token -> header:Authorization edge into /secure/; deps: %+v", rep.Deps)
	}
	// The refresh call closes the chain: its body reuses the previous
	// grant's access_token, giving the paper's inter-transaction
	// dependency shape (grant -> use -> refresh).
	if len(depsTo(rep, refresh.ID)) == 0 {
		t.Errorf("token refresh transaction has no incoming dependency edge; deps: %+v", rep.Deps)
	}
}

func TestScenarioCookieSession(t *testing.T) {
	rep := scenarioApp(t, "cookie")
	// /account/login is the POST; the session-gated call is the GET.
	var gated *core.Transaction
	for _, tx := range rep.Transactions {
		uri := siglang.RegexBody(tx.Request.URI)
		if strings.Contains(uri, "/account/") && tx.Request.Method == "GET" {
			gated = tx
		}
	}
	if gated == nil {
		t.Fatalf("no gated GET /account/ transaction; report:\n%s", report.Text(rep))
	}
	var viaCookie bool
	for _, d := range depsTo(rep, gated.ID) {
		if d.FromField == "session_id" && d.ToPart == "header:Cookie" {
			viaCookie = true
		}
	}
	if !viaCookie {
		t.Errorf("no session_id -> header:Cookie edge; deps: %+v", rep.Deps)
	}
}

func TestScenarioPaginateCursor(t *testing.T) {
	rep := scenarioApp(t, "paginate")
	page := txWithPath(t, rep, "/page/")
	var viaURI bool
	for _, d := range depsTo(rep, page.ID) {
		if d.FromField == "next_page" && d.ToPart == "uri" {
			viaURI = true
		}
	}
	if !viaURI {
		t.Errorf("no next_page -> uri edge into /page/; deps: %+v", rep.Deps)
	}
}

func TestScenarioLongPoll(t *testing.T) {
	rep := scenarioApp(t, "longpoll")
	tx := txWithPath(t, rep, "/poll/")
	uri := siglang.RegexBody(tx.Request.URI)
	if !strings.Contains(uri, "timeout=") {
		t.Errorf("poll URI %q lost the timeout query key", uri)
	}
	if tx.Response == nil || tx.Response.BodyKind != "json" {
		t.Fatalf("poll response not reconstructed as json: %+v", tx.Response)
	}
	if keys := siglang.Keywords(&siglang.JSON{Root: tx.Response.JSON}); len(keys) == 0 {
		t.Error("poll response signature has no keys")
	}
	if !tx.Paired {
		t.Error("poll transaction not paired with its response")
	}
	// The retry self-call must not fork a second transaction: one /poll/
	// endpoint, polled in a loop, is still one protocol behavior.
	polls := 0
	for _, other := range rep.Transactions {
		if strings.Contains(siglang.RegexBody(other.Request.URI), "/poll/") {
			polls++
		}
	}
	if polls != 1 {
		t.Errorf("%d /poll/ transactions, want 1 (retry loop folded)", polls)
	}
}

// TestGenSpecsDeterministic pins corpus.RandSpecs as a pure function of
// its seed: two derivations of the same (seed, n) are deep-equal, and a
// different seed actually moves the trait space.
func TestGenSpecsDeterministic(t *testing.T) {
	a, b := corpus.RandSpecs(1729, 50), corpus.RandSpecs(1729, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed spec derivations differ")
	}
	c := corpus.RandSpecs(1730, 50)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds derived identical specs")
	}
}

// TestGenProgramsDeterministic re-generates a seed sample and requires the
// built programs — including obfuscated ones, whose renaming runs inside
// Generate — to encode byte-identically, and their analysis reports to
// match byte-for-byte. This is the unit-level form of the differential
// harness's regeneration axis.
func TestGenProgramsDeterministic(t *testing.T) {
	const seed, n = 99, 12
	first, second := corpus.Rand(seed, n), corpus.Rand(seed, n)
	for i := range first {
		e1, err := dex.Encode(first[i].Prog)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := dex.Encode(second[i].Prog)
		if err != nil {
			t.Fatal(err)
		}
		if string(e1) != string(e2) {
			t.Fatalf("%s: regenerated program encodes differently", first[i].Spec.Name)
		}
		r1, err := core.Analyze(first[i].Prog, core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := core.Analyze(second[i].Prog, core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		c1, err := evaluate.CanonicalReport(r1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := evaluate.CanonicalReport(r2)
		if err != nil {
			t.Fatal(err)
		}
		if string(c1) != string(c2) {
			t.Fatalf("%s: regenerated analysis reports differ", first[i].Spec.Name)
		}
	}
}

// TestGenMetamorphicObfuscation extends the corpus metamorphic suite to
// the generated trait space: for a 50-app seeded sample, ProGuard-style
// renaming must preserve transaction counts, mapped signature keys,
// dependency edges and rendered report blocks (the same invariants
// TestMetamorphicObfuscation pins on the hand-built corpus).
func TestGenMetamorphicObfuscation(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 50 generated apps twice")
	}
	specs := corpus.RandSpecs(2718, 50)
	for i := range specs {
		// The generator may pre-obfuscate; this test owns the renaming so
		// both sides start from the same plain program.
		specs[i].Obfuscated = false
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			plainApp, obfApp := corpus.Generate(spec), corpus.Generate(spec)
			mapping := obfuscate.Apply(obfApp.Prog, obfuscate.Options{KeepEntryPoints: true})

			plain, err := core.Analyze(plainApp.Prog, core.NewOptions())
			if err != nil {
				t.Fatal(err)
			}
			after, err := core.Analyze(obfApp.Prog, core.NewOptions())
			if err != nil {
				t.Fatalf("obfuscated: %v", err)
			}

			if len(after.Transactions) != len(plain.Transactions) {
				t.Errorf("transactions: %d obfuscated vs %d plain",
					len(after.Transactions), len(plain.Transactions))
			}
			if after.PairCount() != plain.PairCount() {
				t.Errorf("pairs: %d obfuscated vs %d plain", after.PairCount(), plain.PairCount())
			}
			if len(after.Deps) != len(plain.Deps) {
				t.Errorf("dependency edges: %d obfuscated vs %d plain",
					len(after.Deps), len(plain.Deps))
			}
			pk, ak := keysMapped(plain, mapping), keysMapped(after, nil)
			if !equalStrings(pk, ak) {
				t.Errorf("signature keys differ\nplain (mapped): %v\nobfuscated:     %v", pk, ak)
			}
			pe, ae := edgeSet(plain, mapping), edgeSet(after, nil)
			if !equalStrings(pe, ae) {
				t.Errorf("dependency edges differ\nplain (mapped): %v\nobfuscated:     %v", pe, ae)
			}
			pb, ab := textBlocks(plain), textBlocks(after)
			if !equalStrings(pb, ab) {
				t.Errorf("report blocks differ\n--- plain ---\n%s\n--- obfuscated ---\n%s",
					strings.Join(pb, "\n<block>\n"), strings.Join(ab, "\n<block>\n"))
			}
		})
	}
}

// ---- Golden report digests ----------------------------------------------

const (
	reportDigestPath = "testdata/report_digest.json"
	genDigestsPath   = "testdata/gen_digests.json"
)

type reportDigest struct {
	Apps   int    `json:"apps"`
	Digest string `json:"digest"`
}

// TestDefaultReportsPinned hashes the canonical report (text + JSON, no
// opt-in layers) of every app of each golden corpus against its committed
// digest. It fails when analysis output changes for any reason — in
// particular if the security lens ever renders without being asked. The
// rows:
//
//   - the 34 paper apps under core.NewOptions(), in report_digest.json;
//   - corpus.Rand(1729, 500) and corpus.Rand(42, 200) under the
//     differential harness' baseline options (evaluate.OptionsFor), in
//     gen_digests.json keyed "seed:N". Each equals the "Corpus report
//     digest:" line `cmd/evaluate -gen seed:N` prints.
//
// The generated rows stand in for the retired reference implementations
// (the string/map taint replay and the pairwise-scan pairing oracle), which
// were byte-identical to the production paths on exactly these corpora.
// Regenerate after an intentional report change with:
//
//	EXTRACTOCOL_REPORT_DIGEST=write go test -run TestDefaultReportsPinned .
func TestDefaultReportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 734 apps")
	}
	defaults := func(*corpus.App) core.Options { return core.NewOptions() }
	rows := []struct {
		name string
		apps func() []*corpus.App
		opts func(*corpus.App) core.Options
		path string
		key  string // "" when the file holds a single digest
	}{
		{"paper", corpus.Apps, defaults, reportDigestPath, ""},
		{"gen-1729-500", func() []*corpus.App { return corpus.Rand(1729, 500) }, evaluate.OptionsFor, genDigestsPath, "1729:500"},
		{"gen-42-200", func() []*corpus.App { return corpus.Rand(42, 200) }, evaluate.OptionsFor, genDigestsPath, "42:200"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			checkReportDigest(t, row.path, row.key, row.apps(), row.opts)
		})
	}
}

// checkReportDigest hashes the canonical reports of apps, analyzed in order
// under opts, and compares the digest with the one pinned at path (under key
// when the file maps several corpora). With EXTRACTOCOL_REPORT_DIGEST=write
// it records the digest instead; a missing pin is a failure otherwise.
func checkReportDigest(t *testing.T, path, key string, apps []*corpus.App, opts func(*corpus.App) core.Options) {
	t.Helper()
	h := sha256.New()
	for _, app := range apps {
		rep, err := core.Analyze(app.Prog, opts(app))
		if err != nil {
			t.Fatalf("%s: %v", app.Spec.Name, err)
		}
		c, err := evaluate.CanonicalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(c)
	}
	cur := reportDigest{Apps: len(apps), Digest: hex.EncodeToString(h.Sum(nil))}

	write := os.Getenv("EXTRACTOCOL_REPORT_DIGEST") == "write"
	pinned := map[string]reportDigest{}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) && write:
		err = nil
	case err != nil:
		t.Fatal(err)
	case key == "":
		var d reportDigest
		err = json.Unmarshal(data, &d)
		pinned[key] = d
	default:
		err = json.Unmarshal(data, &pinned)
	}
	if err != nil {
		t.Fatalf("corrupt %s: %v", path, err)
	}
	if write {
		pinned[key] = cur
		var v any = pinned
		if key == "" {
			v = cur
		}
		out, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %s", path, out)
		return
	}
	base, ok := pinned[key]
	if !ok {
		t.Fatalf("%s pins no digest for %q", path, key)
	}
	if cur.Apps != base.Apps {
		t.Fatalf("corpus has %d apps, digest pins %d; regenerate %s", cur.Apps, base.Apps, path)
	}
	if cur.Digest != base.Digest {
		t.Errorf("corpus reports changed: digest %s, pinned %s; if intentional, regenerate %s",
			cur.Digest, base.Digest, path)
	}
}

// TestSecurityLensOptIn pins the lens contract at the report-renderer
// level: with Options zero the output is byte-identical to the historical
// renderers, and with Security set annotations appear only on
// transactions that have something to report.
func TestSecurityLensOptIn(t *testing.T) {
	spec := corpus.AppSpec{
		Name: "lens-optin", Package: "lens.optin", Host: "api.lens.example.com",
		Protocol: "HTTP", Library: "urlconn",
		Counts:    map[string]corpus.MethodCounts{"GET": {E: 1, M: 1, A: 1}},
		Scenarios: []string{"token"},
	}
	app := corpus.Generate(spec)
	rep, err := core.Analyze(app.Prog, core.NewOptions())
	if err != nil {
		t.Fatal(err)
	}

	if got, want := report.TextOpts(rep, report.Options{}), report.Text(rep); got != want {
		t.Error("TextOpts with zero Options diverges from Text")
	}
	j1, err := report.JSONOpts(rep, report.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Error("JSONOpts with zero Options diverges from JSON")
	}
	if strings.Contains(string(j2), `"security"`) {
		t.Error("default JSON leaks security annotations")
	}

	sec := report.TextOpts(rep, report.Options{Security: true})
	if !strings.Contains(sec, "security: cleartext http") {
		t.Errorf("HTTP app missing cleartext annotation:\n%s", sec)
	}
	if !strings.Contains(sec, "credential keys:") {
		t.Errorf("token-scenario app missing credential keys:\n%s", sec)
	}
	sj, err := report.JSONOpts(rep, report.Options{Security: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sj), `"credential_keys"`) {
		t.Error("security JSON missing credential_keys")
	}
	// HTTPS app with no sensitive keys: lens on, nothing to say.
	quiet := scenarioApp(t, "gzip")
	qt := report.TextOpts(quiet, report.Options{Security: true})
	if strings.Contains(qt, "security:") {
		t.Errorf("HTTPS no-credential app got a security line:\n%s", qt)
	}
}
