package main

// The end-to-end run: tracing off, the shipped binary as subprocesses,
// everything measured from the client's side of the socket.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"
)

// replicas is how many replicas an end-to-end run reports: the workload
// set up from scratch (generate inputs, boot, prime) and measured that
// many times. Latencies and counts are pooled over them; setup_s is
// their median set-up. A run measures more than it reports when the
// host disturbed some (quiet.go).
const replicas = 3

// nominalSeconds is the -seconds at which a measured phase is the
// frozen stream of workload.go; other values scale the request counts.
const nominalSeconds = 12

// runConfig is what every run of a workload is given.
type runConfig struct {
	seed     int64
	scale    float64 // multiplies every request count (tests only)
	seconds  float64 // nominal total length of the measured phases
	replicas int
	workDir  string // cache directories are created here; the caller removes it
	// statePath is where the checkout's hostState is kept; empty
	// (tests) measures exactly `replicas` replicas.
	statePath string
	outDir    string // trace files are written here
}

// runResult is one run of one workload in either mode.
type runResult struct {
	tally
	metrics map[string]float64
	// info is reported beside the metrics but is not part of the
	// BENCHMARK.json contract.
	info map[string]float64
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]float64{}, info: map[string]float64{}}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startFn boots n nodes with their cache directories under cacheParent,
// or with caches in memory only when it is empty.
type startFn func(ctx context.Context, n int, cacheParent string) (*target, error)

// cacheParent is where w's daemons keep their verdict caches.
func (w *workload) cacheParent(workDir string) string {
	if w.disk {
		return workDir
	}
	return ""
}

// setUp generates the workload, boots its daemons and primes them.
func setUp(ctx context.Context, start startFn, name string, cfg runConfig) (*workload, *target, tally, error) {
	var tl tally
	w, err := buildWorkload(name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, nil, tl, err
	}
	t, err := start(ctx, w.nodes, w.cacheParent(cfg.workDir))
	if err != nil {
		return nil, nil, tl, err
	}
	primed, err := runLoad(t, w.prime, 0)
	if err != nil {
		t.stop()
		return nil, nil, tl, err
	}
	return w, t, primed.tally, nil
}

// runGate boots one node, runs the known-answer gate against it and
// stops it, so the gate's bodies never share a cache with a workload.
func runGate(ctx context.Context, start startFn) (tally, error) {
	t, err := start(ctx, 1, "")
	if err != nil {
		return tally{}, err
	}
	defer t.stop()
	return gate(t)
}

// phase is one replica's measured phase.
type phase struct {
	load      *loadResult
	daemonCPU time.Duration
	selfCPU   time.Duration
	peakRSSMB float64
	setupS    float64
}

// runReplica sets the workload up from scratch, measures its stream
// (cut off at limit) and stops the daemons.
func runReplica(ctx context.Context, start startFn, name string, cfg runConfig, limit time.Duration) (*phase, tally, error) {
	t0 := time.Now()
	w, t, primed, err := setUp(ctx, start, name, cfg)
	if err != nil {
		return nil, primed, err
	}
	defer t.stop()
	p := &phase{setupS: time.Since(t0).Seconds()}
	if primed.failed > 0 {
		return p, primed, nil
	}
	cpu0, _, err := t.procUsage()
	if err != nil {
		return nil, primed, err
	}
	self0 := selfCPU()
	if p.load, err = runLoad(t, w.stream, limit); err != nil {
		return nil, primed, err
	}
	p.selfCPU = selfCPU() - self0
	cpu1, rss, err := t.procUsage()
	if err != nil {
		return nil, primed, err
	}
	p.daemonCPU, p.peakRSSMB = cpu1-cpu0, rss
	p.load.add(primed)
	return p, p.load.tally, nil
}

func runE2E(ctx context.Context, start startFn, name string, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	// A phase is its whole stream. The clock only bounds the run on a
	// host much slower than the reference machine: one and a half times
	// the phase's nominal length.
	limit := time.Duration(1.5 * cfg.seconds / float64(cfg.replicas) * float64(time.Second))
	cfg.scale *= cfg.seconds / nominalSeconds

	// Replicas are measured until cfg.replicas of them are undisturbed
	// (see quiet.go) or the checkout's allowance for more is used up.
	// Work per request depends on the scale, so replicas are remembered
	// per workload and scale.
	st := loadHostState(cfg.statePath)
	st.AllowanceS = min(st.AllowanceS+allowancePerRun.Seconds(), allowanceCap.Seconds())
	key := fmt.Sprintf("%s@%g", name, cfg.scale)
	var (
		phases []*phase
		costs  []float64 // daemon CPU per request of each phase
	)
	for len(phases) < max(cfg.replicas, maxReplicas) {
		t0 := time.Now()
		p, tl, err := runReplica(ctx, start, name, cfg, limit)
		if err != nil {
			return nil, err
		}
		res.add(tl)
		if res.failed > 0 {
			return res, nil
		}
		took := time.Since(t0).Seconds()
		if len(phases) >= cfg.replicas {
			st.AllowanceS -= took
		}
		phases = append(phases, p)
		cost := ratio(ms(p.daemonCPU), float64(len(p.load.latencies)))
		costs = append(costs, cost)
		st.CPUMs[key] = append(st.CPUMs[key], cost)
		if len(phases) >= cfg.replicas && (cfg.statePath == "" ||
			settled(costs, cfg.replicas, quietLevel(st.CPUMs[key])) || st.AllowanceS < took) {
			break
		}
	}
	if cfg.statePath != "" {
		if err := st.save(cfg.statePath); err != nil {
			return nil, err
		}
	}

	var (
		lat, setups, rss []float64
		expects          []expectation
		wall, cpu, self  time.Duration
	)
	for _, i := range fastest(costs, cfg.replicas) {
		p := phases[i]
		lat = append(lat, msOf(p.load.latencies)...)
		expects = append(expects, p.load.expects...)
		setups, rss = append(setups, p.setupS), append(rss, p.peakRSSMB)
		wall, cpu, self = wall+p.load.wall, cpu+p.daemonCPU, self+p.selfCPU
	}

	done := float64(len(lat))
	res.metrics["latency_p50_ms"] = percentile(lat, 50)
	// The tail is read at p90, not p95: a stream is whole zoo blocks, so
	// its latencies are a mixture of 30 costs, and on fleet3_handoff the
	// 95th percentile falls into the gap between the fourth and the
	// fifth heaviest combination (a factor 1.5), on either side of it
	// depending on how the seed shuffled the blocks. Around p90 every
	// workload's latencies lie close together (README.md has the runs).
	res.metrics["latency_p90_ms"] = percentile(lat, 90)
	res.metrics["throughput_rps"] = ratio(done, wall.Seconds())
	res.metrics["cpu_ms_per_request"] = ratio(ms(cpu), done)
	res.metrics["peak_rss_mb"] = median(rss)
	res.metrics["setup_s"] = median(setups)

	res.info["requests"] = done
	res.info["replicas_measured"] = float64(len(phases))
	res.info["measured_s"] = wall.Seconds()
	res.info["harness.client_cpu_share"] = ratio(ms(self), ms(self)+ms(cpu))
	for kind, name := range expectationNames {
		var xs []float64
		for i, e := range expects {
			if e == expectation(kind) {
				xs = append(xs, lat[i])
			}
		}
		if len(xs) > 0 {
			res.info["latency_p50_ms."+name] = percentile(xs, 50)
			res.info["requests."+name] = float64(len(xs))
		}
	}
	return res, nil
}

// printMetrics writes every metric by name with its unit.
func printMetrics(out io.Writer, workload string, metrics map[string]float64, units map[string]string) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-16s %-34s %14.4f %s\n", workload, n, metrics[n], units[n])
	}
}
