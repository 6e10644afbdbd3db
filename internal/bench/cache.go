package bench

import (
	"fmt"
	"strings"
	"time"

	"entangle/internal/core"
	"entangle/internal/lemmas"
	"entangle/internal/vcache"
)

// CachePoint is one workload's cold/warm measurement pair against the
// content-addressed verdict cache — one row of `entangle-bench -exp
// cache` and one entry of the BENCH_cache.json trajectory.
type CachePoint struct {
	Workload string  `json:"workload"`
	Ops      int     `json:"ops"`
	ColdMS   float64 `json:"cold_ms"`
	WarmMS   float64 `json:"warm_ms"`
	// Speedup is cold wall-clock over warm wall-clock.
	Speedup float64 `json:"speedup"`
	// HitRate is the warm run's hits / (hits + misses); 1.0 means
	// every operator replayed a stored verdict.
	HitRate float64 `json:"hit_rate"`
	Hits    int64   `json:"hits"`
	Stores  int64   `json:"stores"`
	// ColdIters / WarmIters are the runs' live saturation iterations;
	// a warm run over an unchanged graph must report zero.
	ColdIters int `json:"cold_iterations"`
	WarmIters int `json:"warm_iterations"`
}

// Cache measures the verdict cache on the Figure 3 model set: each
// workload is checked twice against one fresh on-disk cache — a cold
// run that pays full saturation and stores every verdict, then a warm
// run that must replay them all (zero live saturation iterations).
func Cache() (string, []CachePoint, error) {
	var out strings.Builder
	fmt.Fprintln(&out, "Cache: cold vs warm verdict-cache runs (parallelism 2, 1 layer)")
	fmt.Fprintf(&out, "%-16s %8s %10s %10s %9s %9s\n", "model", "#ops", "cold", "warm", "speedup", "hit-rate")
	var points []CachePoint
	for _, w := range Fig3Workloads() {
		p, err := cachePoint(w, 2, 1)
		if err != nil {
			return "", nil, err
		}
		points = append(points, *p)
		fmt.Fprintf(&out, "%-16s %8d %10s %10s %8.1fx %8.0f%%\n",
			p.Workload, p.Ops,
			time.Duration(p.ColdMS*float64(time.Millisecond)).Round(time.Millisecond),
			time.Duration(p.WarmMS*float64(time.Millisecond)).Round(10*time.Microsecond),
			p.Speedup, 100*p.HitRate)
	}
	fmt.Fprintln(&out, "(warm runs perform zero saturation iterations: every verdict replays from the cache)")
	return out.String(), points, nil
}

// cachePoint runs one workload cold then warm against a fresh
// disk-backed cache in a temporary directory.
func cachePoint(w Workload, parallel, layers int) (*CachePoint, error) {
	gs, gd, ri, err := w.graphs(parallel, layers)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := tempDir("cache")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	vc, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	checker := core.NewChecker(core.Options{Registry: lemmas.Default(), Cache: vc})

	start := time.Now()
	cold, err := checker.Check(gs, gd, ri)
	if err != nil {
		return nil, fmt.Errorf("%s cold: %v", w.Name, err)
	}
	coldD := time.Since(start)

	start = time.Now()
	warm, err := checker.Check(gs, gd, ri)
	if err != nil {
		return nil, fmt.Errorf("%s warm: %v", w.Name, err)
	}
	warmD := time.Since(start)
	if warm.LiveStats.Iterations != 0 {
		return nil, fmt.Errorf("%s warm run re-saturated: %d live iterations", w.Name, warm.LiveStats.Iterations)
	}

	hitRate := 0.0
	if lookups := warm.Cache.Hits + warm.Cache.Misses; lookups > 0 {
		hitRate = float64(warm.Cache.Hits) / float64(lookups)
	}
	speedup := 0.0
	if warmD > 0 {
		speedup = float64(coldD) / float64(warmD)
	}
	return &CachePoint{
		Workload:  w.Name,
		Ops:       gs.OperatorCount() + gd.OperatorCount(),
		ColdMS:    msOf(coldD),
		WarmMS:    msOf(warmD),
		Speedup:   speedup,
		HitRate:   hitRate,
		Hits:      warm.Cache.Hits,
		Stores:    cold.Cache.Stores,
		ColdIters: cold.LiveStats.Iterations,
		WarmIters: warm.LiveStats.Iterations,
	}, nil
}
