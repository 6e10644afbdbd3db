// Command benchmark is the repository's benchmark: it measures the
// entangled daemon (and a 3-node fleet of it) the way a client sees it,
// and attributes the time to layers in a separate traced run.
//
//	go run ./benchmark                       # every workload, both modes
//	go run ./benchmark -workload cold_zoo -seed 2 -seconds 12 -trace 0
//	go run ./benchmark -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind: the daemon binary, the
// cache directories (removed when the run ends) and host.json, what the
// checkout's runs have learnt about the host (quiet.go).
const buildDir = ".bench_build"

// environment is the header every result file carries.
type environment struct {
	GitCommit    string         `json:"git_commit"`
	GoVersion    string         `json:"go_version"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Scale        float64        `json:"scale"`
	Clients      int            `json:"clients"`
	DaemonBuildS float64        `json:"daemon_build_s"`
	Requests     map[string]int `json:"request_counts"`
	Started      string         `json:"started"`
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Info      map[string]float64 `json:"info"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same request bodies")
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") and end with one JSON result line; empty runs all four in both modes")
		out      = flag.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
		scale    = flag.Float64("scale", 1, "multiplies every request count (tests only)")
		seconds  = flag.Float64("seconds", 12, "total length of the measured phases of an end-to-end run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced run")
		compare  = flag.Bool("compare", false, "compare two result files (or directories of them): -compare A B")
	)
	flag.Parse()
	if err := run(*seed, *workload, *out, *scale, *seconds, *trace, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness failure")

func run(seed int64, workload, out string, scale, seconds float64, trace int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files or directories")
		}
		return runCompare(os.Stdout, "BENCHMARK.json", args[0], args[1])
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	workDir := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	bin, buildS, err := buildDaemon()
	if err != nil {
		return err
	}
	start := func(ctx context.Context, n int, cacheParent string) (*target, error) {
		return startDaemons(ctx, bin, n, cacheParent)
	}
	units := unitsOf(endToEndMetrics, perLayerMetrics)
	cfg := runConfig{seed: seed, scale: scale, seconds: seconds, replicas: replicas, workDir: workDir,
		statePath: filepath.Join(buildDir, "host.json"), outDir: out}

	// An interrupt kills the daemons; the run then fails fast on
	// refused connections and unwinds through its usual clean-up.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// one gates, runs and prints one workload in one mode. A missed
	// known answer aborts before any timing.
	one := func(name string, traced bool) (*runResult, error) {
		boot := startFn(start)
		if traced {
			boot = startInProcess
		}
		t0 := time.Now()
		gated, err := runGate(ctx, boot)
		if err != nil {
			return nil, fmt.Errorf("known-answer gate: %w", err)
		}
		gateS := time.Since(t0).Seconds()
		res := newRunResult()
		if gated.failed == 0 {
			if traced {
				res, err = runTraced(ctx, name, cfg)
			} else {
				res, err = runE2E(ctx, start, name, cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		res.add(gated)
		res.info["gate_s"] = gateS
		res.info["failed_share"] = ratio(float64(res.failed), float64(res.attempted))
		printMetrics(os.Stdout, name, res.metrics, units)
		printMetrics(os.Stdout, name, res.info, nil)
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, p)
		}
		return res, nil
	}

	if workload != "" {
		res, err := one(workload, trace != 0)
		if err != nil {
			return err
		}
		if err := printResultLine(res, trace != 0); err != nil {
			return err
		}
		if res.failed > 0 {
			return errIncorrect
		}
		return nil
	}

	file := resultFile{
		Env: environment{
			GitCommit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Scale: scale, Clients: clients,
			DaemonBuildS: buildS, Requests: map[string]int{}, Started: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: map[string]workloadResult{},
	}
	failed := 0
	for _, name := range workloadNames {
		e2e, err := one(name, false)
		if err != nil {
			return err
		}
		traced, err := one(name, true)
		if err != nil {
			return err
		}
		info := e2e.info
		for k, v := range traced.info {
			info["traced."+k] = v
		}
		file.Env.Requests[name] = int(e2e.info["requests"])
		file.Env.Requests[name+".traced"] = int(traced.info["requests"])
		file.Workloads[name] = workloadResult{EndToEnd: e2e.metrics, PerLayer: traced.metrics, Info: info,
			Attempted: e2e.attempted + traced.attempted, Failed: e2e.failed + traced.failed}
		failed += e2e.failed + traced.failed
	}
	path := filepath.Join(out, "result-"+time.Now().UTC().Format("20060102-150405")+".json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// printResultLine writes the one-line result of a single-workload run:
// exactly the metrics BENCHMARK.json lists for the mode.
func printResultLine(res *runResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEndMetrics
	if traced {
		list = perLayerMetrics
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.Name] = value{res.metrics[m.Name], m.Unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{"correct": res.failed == 0, "attempted": attempted,
		"failed": res.failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// buildDaemon compiles the shipped cmd/entangled into buildDir.
func buildDaemon() (bin string, seconds float64, err error) {
	bin, err = filepath.Abs(filepath.Join(buildDir, "entangled"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/entangled")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building cmd/entangled: %w", err)
	}
	return bin, time.Since(t0).Seconds(), nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
