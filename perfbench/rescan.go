package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/evaluate"
	"extractocol/internal/obs"
	"extractocol/internal/resultcache"
)

// warmedApps is how many generated apps the rescan set-up stores in the
// cache; the hits draw from them.
const warmedApps = 200

// missPool is how many never-seen apps one rescan pass analyzes; a pass is
// five times as many ops, so one op in five misses. Generated apps differ
// widely in analysis cost, so a smaller pool lets the seed move the miss
// figures by more than 10%.
const missPool = 1200

// missSeedMask derives the never-seen apps' seed, disjoint from the warmed
// apps' (generated package names embed the seed).
const missSeedMask = 0x5EED_0F_AB5E17

// rescan repeats what `extractocol -cache` does per binary, in process:
// hash the container, decode it, derive the cache key, and analyze with the
// persistent cache. Four ops in five hit an app warmed in set-up; one in
// five is a never-seen app that misses, runs the pipeline and stores its
// report, so reads run beside writes and a change trading hit speed for
// store cost shows.
type rescan struct {
	seed      uint64
	dir       string
	cache     *resultcache.Cache
	warmBins  [][]byte
	warmCanon [][]byte
	warmFiles map[string]bool
	missBins  [][]byte
	missTruth []map[string]int // spec-derived signature counts per method
	stream    []rescanOp
}

type rescanOp struct {
	miss bool
	app  int // index into warmBins or missBins
}

type rescanOut struct{ rep *core.Report }

func (w *rescan) setup(*tracer) error {
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	c, err := resultcache.Open(w.dir)
	if err != nil {
		return err
	}
	w.cache = c
	if w.warmBins, err = encodeApps(corpus.Rand(w.seed, warmedApps)); err != nil {
		return err
	}
	for _, bin := range w.warmBins {
		out, err := w.analyze(bin, w.cache, nil)
		if err != nil {
			return err
		}
		c, err := evaluate.CanonicalReport(out.rep)
		if err != nil {
			return err
		}
		w.warmCanon = append(w.warmCanon, c)
	}
	if w.warmFiles, err = listDir(w.dir); err != nil {
		return err
	}
	missApps := corpus.Rand(w.seed^missSeedMask, missPool)
	if w.missBins, err = encodeApps(missApps); err != nil {
		return err
	}
	for _, a := range missApps {
		w.missTruth = append(w.missTruth, a.Truth.StaticVis)
	}

	r := rand.New(rand.NewPCG(w.seed, 0))
	for i := range w.missBins {
		w.stream = append(w.stream, rescanOp{miss: true, app: i})
	}
	for range 4 * len(w.missBins) {
		w.stream = append(w.stream, rescanOp{app: r.IntN(len(w.warmBins))})
	}
	r.Shuffle(len(w.stream), func(i, j int) { w.stream[i], w.stream[j] = w.stream[j], w.stream[i] })
	return nil
}

func (w *rescan) passLen() int  { return len(w.stream) }
func (w *rescan) units(int) int { return 1 }
func (w *rescan) close()        { os.RemoveAll(w.dir) }

func (w *rescan) kind(i int) string {
	if w.stream[i].miss {
		return "miss"
	}
	return "hit"
}

func (w *rescan) bin(i int) []byte {
	op := w.stream[i]
	if op.miss {
		return w.missBins[op.app]
	}
	return w.warmBins[op.app]
}

// reset deletes the entries stored since set-up, so the never-seen apps
// miss again and every pass, and both runs of a traced pair, do the same
// work.
func (w *rescan) reset() error {
	files, err := listDir(w.dir)
	if err != nil {
		return err
	}
	for f := range files {
		if !w.warmFiles[f] {
			if err := os.Remove(filepath.Join(w.dir, f)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *rescan) inputs() inputStamp {
	d := newDigest()
	d.bytes(w.warmBins...)
	d.bytes(w.missBins...)
	for _, op := range w.stream {
		d.int(op.app)
		d.bool(op.miss)
	}
	return inputStamp{Items: fmt.Sprintf("%d warmed + %d never-seen apps, %d ops per pass",
		len(w.warmBins), len(w.missBins), len(w.stream)), SHA256: d.hex()}
}

func (w *rescan) run(i int, tr *tracer) (any, error) {
	var cache core.ReportCache = w.cache
	if tr != nil {
		cache = &tracedCache{cache: w.cache, tr: tr}
	}
	return w.analyze(w.bin(i), cache, tr)
}

// analyze is one `extractocol -cache` invocation on container bytes.
func (w *rescan) analyze(bin []byte, cache core.ReportCache, tr *tracer) (rescanOut, error) {
	tr.begin("resultcache.hash")
	h := resultcache.HashBytes(bin)
	tr.end()
	tr.begin("dex.decode")
	p, err := dex.Decode(bin)
	tr.end()
	if err != nil {
		return rescanOut{}, err
	}
	opts := core.NewOptions()
	tr.begin("resultcache.keyfor")
	opts.CacheKey = resultcache.KeyFor(h, opts)
	tr.end()
	opts.Cache = cache
	tr.begin("core.analyze")
	rep, err := core.Analyze(p, opts)
	tr.end()
	return rescanOut{rep}, err
}

// check holds a hit to the canonical report the same app produced cold in
// set-up, and a miss to its spec's ground truth, as in cold.
func (w *rescan) check(i int, out any) error {
	rep := out.(rescanOut).rep
	op := w.stream[i]
	if !op.miss {
		if rep.Profile.Counter(obs.CtrCacheReportHits) != 1 {
			return fmt.Errorf("%s: warmed app missed the cache", rep.Package)
		}
		c, err := evaluate.CanonicalReport(rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(c, w.warmCanon[op.app]) {
			return fmt.Errorf("%s: cached report differs from the cold one", rep.Package)
		}
		return nil
	}
	if rep.Profile.Counter(obs.CtrCacheReportMisses) != 1 || rep.Profile.Counter(obs.CtrCacheReportWrites) != 1 {
		return fmt.Errorf("%s: never-seen app was not a stored miss", rep.Package)
	}
	return checkCounts(rep, w.missTruth[op.app])
}

// attribute times the cache codec on the op's report — decode for a hit,
// encode for a miss — and replays the pipeline layers for a miss. A hit's
// binary is decoded afresh too, so dex.decode_allocs counts the same ops
// as the dex.decode spans. Lookups, hits and the lock wait come from the
// op's profile, into which core.Analyze drains the cache's counters and
// DrainContention gauges.
func (w *rescan) attribute(i int, out any, spans []span, lay *layers) error {
	rep := out.(rescanOut).rep
	hits := rep.Profile.Counter(obs.CtrCacheReportHits)
	lay.count("resultcache.gets", float64(hits+rep.Profile.Counter(obs.CtrCacheReportMisses)))
	lay.count("resultcache.hits", float64(hits))
	lay.add("resultcache.lock_wait_ns", float64(rep.Profile.Counter(obs.CtrCacheLockWaitNS)))
	if !w.stream[i].miss {
		if _, err := decodeAllocs(w.bin(i), lay); err != nil {
			return err
		}
		data, err := resultcache.EncodeReport(rep)
		if err != nil {
			return err
		}
		return timedErr(lay, "resultcache.decode", func() error {
			_, err := resultcache.DecodeReport(data)
			return err
		})
	}
	var data []byte
	if err := timedErr(lay, "resultcache.encode", func() (err error) {
		data, err = resultcache.EncodeReport(rep)
		return err
	}); err != nil {
		return err
	}
	lay.add("resultcache.entry_bytes", float64(len(data)))
	addProfile(rep, lay)
	analyzeNS := dur(spans, "core.analyze") - dur(spans, "resultcache.get") - dur(spans, "resultcache.put")
	return replayAnalysis(w.bin(i), rep, analyzeNS, lay)
}

// tracedCache records a span around every cache call core.Analyze makes.
// It forwards DrainContention, so core folds the cache's contention gauges
// into the traced op's profile exactly as it does untraced.
type tracedCache struct {
	cache *resultcache.Cache
	tr    *tracer
}

func (t *tracedCache) Get(key string) (*core.Report, bool, error) {
	t.tr.begin("resultcache.get")
	defer t.tr.end()
	return t.cache.Get(key)
}

func (t *tracedCache) Put(key string, r *core.Report) error {
	t.tr.begin("resultcache.put")
	defer t.tr.end()
	return t.cache.Put(key, r)
}

func (t *tracedCache) DrainContention() (lockWaitNS, sameKeyRaces, installRetries int64) {
	return t.cache.DrainContention()
}

func listDir(dir string) (map[string]bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(ents))
	for _, e := range ents {
		out[e.Name()] = true
	}
	return out, nil
}
