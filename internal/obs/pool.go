package obs

import (
	"runtime"
	"sync"
	"time"
)

// Fan is the pipeline's one worker pool: it runs jobs 0..n-1 on at most
// workers goroutines (0 means GOMAXPROCS; clamped to n; serial means one,
// running in job order on the calling goroutine), each with its own shard
// on which jobs record spans of the category cat, and returns the number
// of workers it ran. After the pool joins it drains the shards into c
// and, when cat's row names them, sets the pool's worker and utilization
// gauges, utilization being the busy time those spans recorded over
// workers × the fan-out wall time. A nil collector hands jobs nil shards
// and records nothing.
func (c *Collector) Fan(cat string, n, workers int, serial bool, job func(i int, s *Shard)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if serial {
		workers = 1
	}
	workers = min(workers, n)
	if workers <= 0 {
		return 0
	}
	start := time.Now()
	shards := make([]*Shard, workers)
	for w := range shards {
		shards[w] = c.NewShard()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i, shards[0])
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for _, s := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					job(i, s)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if c == nil {
		return workers
	}
	k := kindOf(cat)
	var busy int64
	for _, s := range shards {
		if k != nil {
			busy += s.counts[k.busy]
		}
		c.Drain(s)
	}
	if k == nil || k.workers == "" {
		return workers
	}
	c.Gauge(k.workers, float64(workers))
	if wall := time.Since(start).Nanoseconds(); wall > 0 {
		c.Gauge(k.util, float64(busy)/float64(int64(workers)*wall))
	}
	return workers
}
