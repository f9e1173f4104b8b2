package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// hostStamp names the machine and the code a result came from, so results
// from different hosts or commits are never compared silently.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

// inputStamp names the generated inputs: the seed they came from, what
// they are, and a SHA-256 over their bytes.
type inputStamp struct {
	Seed   uint64 `json:"seed"`
	Items  string `json:"items"`
	SHA256 string `json:"sha256"`
}

func newHostStamp(commit string) hostStamp {
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Source:     sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the program's Go sources, its module file and the
// benchmark itself, which identifies the code even where no git metadata
// is available. Paths are relative to the repository root.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mod")) {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	d := newDigest()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unreadable"
		}
		d.str(f)
		d.bytes(data)
	}
	return d.hex()
}

// digest is a SHA-256 over length-prefixed fields, so field boundaries
// cannot alias.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) bytes(bs ...[]byte) {
	for _, b := range bs {
		d.int(len(b))
		d.h.Write(b)
	}
}

func (d *digest) str(ss ...string) {
	for _, s := range ss {
		d.int(len(s))
		d.h.Write([]byte(s))
	}
}

func (d *digest) int(vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.h.Write(buf[:])
	}
}

func (d *digest) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digest) strMap(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.int(len(keys))
	for _, k := range keys {
		d.str(k, m[k])
	}
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// timedErr files f's duration under name.
func timedErr(lay *layers, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	lay.add(name, float64(time.Since(t0).Nanoseconds()))
	return err
}

// gcStats samples the Go runtime's cumulative counters.
type gcStats struct {
	allocBytes, cycles, gcCPU, totalCPU float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// gcSampler reuses one sample slice so reading allocates nothing.
type gcSampler struct{ s []metrics.Sample }

func newGCSampler() *gcSampler {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	return &gcSampler{s}
}

func (g *gcSampler) read() gcStats {
	metrics.Read(g.s)
	v := func(i int) float64 {
		switch g.s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(g.s[i].Value.Uint64())
		case metrics.KindFloat64:
			return g.s[i].Value.Float64()
		}
		return 0
	}
	return gcStats{v(0), v(1), v(2), v(3)}
}

// addDelta accumulates the change from before to after.
func (a *gcStats) addDelta(before, after gcStats) {
	a.allocBytes += after.allocBytes - before.allocBytes
	a.cycles += after.cycles - before.cycles
	a.gcCPU += after.gcCPU - before.gcCPU
	a.totalCPU += after.totalCPU - before.totalCPU
}

// resetPeakRSS returns the set-up's memory to the OS and restarts the
// kernel's peak-RSS count (VmHWM) from what is resident now, so
// peakRSSMB reports the measured ops' peak rather than that of generating
// the inputs. Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
