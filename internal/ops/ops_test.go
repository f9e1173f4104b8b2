package ops

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"extractocol/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector()
	reg.Attach(c)
	done := c.Phase(obs.PhaseSlice)
	done()
	c.Add(obs.CtrCacheReportHits, 1)

	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.Contains(s.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", s.URL())
	}

	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"extractocol_runs_live 1",
		"extractocol_cache_report_hits_total 1",
		`extractocol_phase_latency_seconds_bucket{phase="slice"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var h struct {
		Status   string `json:"status"`
		RunsLive int64  `json:"runs_live"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v (%s)", err, body)
	}
	if h.Status != "ok" || h.RunsLive != 1 {
		t.Fatalf("/healthz = %+v", h)
	}

	code, body = get(t, s.URL()+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}
}

// TestServeShutdownNoLeak pins the goroutine hygiene of the listener: after
// Close, the serve goroutine and every connection goroutine must exit.
func TestServeShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, err := Serve("127.0.0.1:0", obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
			t.Fatalf("round %d: healthz = %d", i, code)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", i, err)
		}
	}
	// Idle HTTP client keep-alive goroutines settle asynchronously; poll
	// with a deadline instead of asserting instantly.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeNilSafety(t *testing.T) {
	var s *Server
	if s.URL() != "" || s.Close() != nil {
		t.Fatal("nil server should be inert")
	}
	if _, err := Serve("256.256.256.256:1", obs.NewRegistry()); err == nil {
		t.Fatal("bad address should error")
	}
}

// TestOpenListenError checks that a listener failure surfaces with the one
// "ops: listen" prefix Serve gives it, not a doubled one.
func TestOpenListenError(t *testing.T) {
	_, err := Open("127.0.0.1:99999", "", io.Discard)
	if err == nil {
		t.Fatal("invalid port should error")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "ops: listen 127.0.0.1:99999: ") || strings.Contains(msg, "ops: ops:") {
		t.Errorf("error = %q, want one ops: listen prefix", msg)
	}
}

// TestOpenEventsErrorClosesListener checks that when the events file
// cannot be created, the listener Open already bound is released.
func TestOpenEventsErrorClosesListener(t *testing.T) {
	var announce strings.Builder
	bad := filepath.Join(t.TempDir(), "missing", "events.jsonl")
	if _, err := Open("127.0.0.1:0", bad, &announce); err == nil || !strings.HasPrefix(err.Error(), "events: ") {
		t.Fatalf("err = %v, want an events: error", err)
	}
	addr := strings.TrimPrefix(strings.TrimSpace(announce.String()), "ops: serving on http://")
	if addr == "" || addr == strings.TrimSpace(announce.String()) {
		t.Fatalf("listener address never announced: %q", announce.String())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener on %s still held after the failed Open: %v", addr, err)
	}
	ln.Close()
}

func TestOpenOffAndClose(t *testing.T) {
	tel, err := Open("", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Reg != nil || tel.Events != nil {
		t.Fatalf("no flags should leave telemetry off: %+v", tel)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "events.jsonl")
	tel, err = Open("127.0.0.1:0", path, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tel.Events.Emit(obs.Event{Type: obs.EvRunStart})
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), obs.EvRunStart) {
		t.Fatalf("events file = %q, %v; want the flushed event", data, err)
	}
}
