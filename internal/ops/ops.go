// Package ops is the operational HTTP endpoint of the telemetry plane: a
// small listener mounted by the CLI commands (and, per ROADMAP, the future
// extractocold daemon) that exposes the process's obs.Registry as
// Prometheus text on /metrics, a liveness probe on /healthz, and the
// standard net/http/pprof profiling handlers — everything a fleet
// operator needs to watch a long corpus run from the outside.
//
// The server idiom mirrors internal/httpsim: bind an explicit listener
// (so ":0" reports the kernel-chosen port), serve on a goroutine, and shut
// down gracefully with a bounded drain.
package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"extractocol/internal/obs"
)

// Server is a running ops endpoint.
type Server struct {
	// Addr is the bound address, e.g. "127.0.0.1:43210" — useful when the
	// caller asked for port 0.
	Addr string

	srv *http.Server
	ln  net.Listener
}

// health is the /healthz payload. Field order is fixed by the struct so
// probes can assert on the serialized form.
type health struct {
	Status    string `json:"status"`
	UptimeSec int64  `json:"uptime_sec"`
	RunsLive  int64  `json:"runs_live"`
}

// Handler returns the ops endpoint's routing table for the given registry,
// usable standalone (tests, or mounting under a larger server).
func Handler(reg *obs.Registry) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.Prometheus())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _, _, live := reg.Gather()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(health{
			Status:    "ok",
			UptimeSec: int64(time.Since(start).Seconds()),
			RunsLive:  live,
		})
	})
	// net/http/pprof registers on http.DefaultServeMux as an import side
	// effect; mount the handlers explicitly so this mux stays self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves the ops endpoint
// for reg until Close.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second, // pprof profiles stream for 30s
		IdleTimeout:       60 * time.Second,
	}
	s := &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() {
		// Serve returns ErrServerClosed after Shutdown; anything else means
		// the listener died, which Close surfaces via the server state.
		_ = srv.Serve(ln)
	}()
	return s, nil
}

// URL returns the endpoint's base URL.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr
}

// Close drains in-flight requests (bounded) and releases the listener. A
// nil server is a no-op so callers can close unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	// Shutdown closes only the listeners Serve has picked up; closing ours
	// too releases the port on return even if the serve goroutine has not
	// started yet (the second close's error is expected and ignored).
	s.ln.Close()
	return err
}

// Telemetry is the live ops plane behind the commands' -ops and -events
// flags: a registry for exposition, the HTTP listener, and the structured
// event log. The zero value (no flags) is fully off and costs nothing on
// the analysis path.
type Telemetry struct {
	Reg    *obs.Registry
	Events *obs.EventLog
	srv    *Server
}

// Open starts whatever a non-empty opsAddr and eventsFile ask for. The
// bound ops address is announced on announce (the commands pass stderr,
// keeping stdout for their output) so scripts can discover a :0 listener.
// On error nothing is left running.
func Open(opsAddr, eventsFile string, announce io.Writer) (*Telemetry, error) {
	t := &Telemetry{}
	if opsAddr != "" {
		t.Reg = obs.NewRegistry()
		srv, err := Serve(opsAddr, t.Reg)
		if err != nil {
			return nil, err
		}
		t.srv = srv
		fmt.Fprintf(announce, "ops: serving on %s\n", srv.URL())
	}
	if eventsFile != "" {
		f, err := os.Create(eventsFile)
		if err != nil {
			t.srv.Close()
			return nil, fmt.Errorf("events: %w", err)
		}
		t.Events = obs.NewEventLog(f)
	}
	return t, nil
}

// Close shuts the listener down and flushes the event log; the first
// error wins.
func (t *Telemetry) Close() error {
	err := t.srv.Close()
	if e := t.Events.Close(); err == nil {
		err = e
	}
	return err
}
