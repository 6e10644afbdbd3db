package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testScale shrinks every workload to a handful of requests.
const testScale = 0.012

func bodyHashes(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	for _, name := range workloadNames {
		w, err := buildWorkload(name, seed, testScale)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range append(append([]request(nil), w.prime...), w.stream...) {
			sum := sha256.Sum256(r.body.Data)
			out = append(out, name+"/"+r.body.Name+"/"+string(sum[:]))
		}
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := bodyHashes(t, 1), bodyHashes(t, 1), bodyHashes(t, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different request bodies")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 generated the same request bodies")
	}
	seen := map[string]bool{}
	w, err := buildWorkload("cold_zoo", 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.stream {
		if seen[r.body.Name] {
			t.Fatalf("cold_zoo sends %s twice: its second check would be warm", r.body.Name)
		}
		seen[r.body.Name] = true
	}
}

func TestBlocksHoldEveryCombination(t *testing.T) {
	zoo := zooCombos()
	if len(zoo) != 30 {
		t.Fatalf("zoo has %d combinations, want 30", len(zoo))
	}
	got := newGenerator(7).blocks(2 * len(zoo))
	for _, half := range [][]combo{got[:len(zoo)], got[len(zoo):]} {
		count := map[string]int{}
		for _, c := range half {
			count[c.String()]++
		}
		if len(count) != len(zoo) {
			t.Fatalf("a block holds %d distinct combinations, want %d", len(count), len(zoo))
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 75: 4, 95: 4.8, 100: 5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample is not 0")
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},  // covers 30
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps 1: adds 20
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent: adds 10
		{ID: 4, Parent: 1, Start: 10, End: 15},
	}
	want := []int64{40, 25, 30, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestDisturbedReplicasAreRepeated checks the rule of quiet.go: a run is
// settled once its three fastest replicas lie within quietSlack of the
// checkout's quiet level, and reports exactly those.
func TestDisturbedReplicasAreRepeated(t *testing.T) {
	costs := []float64{30, 41, 31}
	if settled(costs, 3, 30) {
		t.Fatal("settled with a replica 37% above the quiet level")
	}
	if settled(costs[:2], 3, 30) {
		t.Fatal("settled on two replicas")
	}
	costs = append(costs, 40, 32)
	if !settled(costs, 3, 30) {
		t.Fatal("30, 31, 32 are within 8% of 30")
	}
	if settled(costs, 3, 25) {
		t.Fatal("settled although the checkout's quiet level is 25")
	}
	// One lucky replica does not move the quiet level.
	if q := quietLevel([]float64{25, 30, 30, 31, 31, 31, 32, 40, 41}); q != 30 {
		t.Fatalf("quiet level %v, want 30", q)
	}
	if got, want := fastest(costs, 3), []int{0, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fastest = %v, want %v", got, want)
	}

	path := filepath.Join(t.TempDir(), "host.json")
	st := loadHostState(path) // no file yet: a fresh checkout
	st.AllowanceS, st.CPUMs["w@1"] = 12.5, []float64{30, 31.5}
	if err := st.save(path); err != nil {
		t.Fatal(err)
	}
	if got := loadHostState(path); !reflect.DeepEqual(got, st) {
		t.Fatalf("state read back as %+v, want %+v", got, st)
	}
}

// TestFleetScheduleLag checks the schedule at its real lag: touches of
// one body go to three different nodes in order, cold first, and are
// at least fleetMinLag measured positions apart.
func TestFleetScheduleLag(t *testing.T) {
	bodies := make([]*body, 2*fleetLagTicks+fleetBodies)
	for i := range bodies {
		bodies[i] = &body{}
	}
	prime, stream := fleetSchedule(bodies, fleetLagTicks)
	if len(prime) != 3*fleetLagTicks {
		t.Fatalf("%d set-up touches, want %d", len(prime), 3*fleetLagTicks)
	}
	type touch struct{ pos, node int }
	seen := map[*body][]touch{}
	for i, r := range prime {
		seen[r.body] = append(seen[r.body], touch{i - len(prime), r.node})
	}
	cold := 0
	for i, r := range stream {
		prev := seen[r.body]
		if (len(prev) == 0) != (r.expect == expectCold) {
			t.Fatalf("position %d: touch %d of its body expects %v", i, len(prev), r.expect)
		}
		if r.expect == expectCold {
			cold++
		}
		for _, p := range prev {
			if p.node == r.node {
				t.Fatalf("position %d: node %d touches the body twice", i, r.node)
			}
		}
		if n := len(prev); n > 0 && prev[n-1].pos >= 0 && i-prev[n-1].pos < fleetMinLag {
			t.Fatalf("position %d: only %d positions after the body's previous touch", i, i-prev[n-1].pos)
		}
		seen[r.body] = append(prev, touch{i, r.node})
	}
	// From the first position on, one request in three is cold.
	for i, r := range stream {
		if (i%fleetNodes == 0) != (r.expect == expectCold) {
			t.Fatalf("position %d expects %v: every tick is one cold request, then two warm ones", i, r.expect)
		}
	}
	if cold != fleetBodies {
		t.Fatalf("%d cold requests, want %d", cold, fleetBodies)
	}
}

func writeResult(t *testing.T, dir, name string, e2e, layer map[string]float64) string {
	t.Helper()
	rf := resultFile{Workloads: map[string]workloadResult{"w": {EndToEnd: e2e, PerLayer: layer}}}
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":""}],
		"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1},
		              {"name":"throughput_rps","unit":"1/s","better":"higher","bound":0.1},
		              {"name":"absent","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"egraph.matches","unit":"count","better":"lower"},
		             {"name":"server.decode_ms","unit":"ms","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeResult(t, dir, "a.json", map[string]float64{"latency_p50_ms": 10, "throughput_rps": 100},
		map[string]float64{"egraph.matches": 500, "server.decode_ms": 1})
	row := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == metric {
				return f[len(f)-1]
			}
		}
		t.Fatalf("no row for %s in:\n%s", metric, out)
		return ""
	}

	// Inside the bounds, exact counts equal: no error.
	same := writeResult(t, dir, "b.json", map[string]float64{"latency_p50_ms": 10.9, "throughput_rps": 91},
		map[string]float64{"egraph.matches": 500, "server.decode_ms": 3})
	var out bytes.Buffer
	if err := runCompare(&out, spec, base, same); err != nil {
		t.Fatalf("compare inside the bounds: %v\n%s", err, out.String())
	}
	for metric, want := range map[string]string{"latency_p50_ms": "ok", "throughput_rps": "ok", "absent": "unresolved",
		"egraph.matches": "ok", "server.decode_ms": "-"} {
		if got := row(out.String(), metric); got != want {
			t.Errorf("%s: verdict %q, want %q", metric, got, want)
		}
	}

	// Past a bound in the worse direction, and a moved exact count.
	worse := writeResult(t, dir, "c.json", map[string]float64{"latency_p50_ms": 9, "throughput_rps": 80},
		map[string]float64{"egraph.matches": 501, "server.decode_ms": 1})
	out.Reset()
	if err := runCompare(&out, spec, base, worse); err == nil {
		t.Fatalf("compare past a bound reported no error:\n%s", out.String())
	}
	for metric, want := range map[string]string{"latency_p50_ms": "ok", "throughput_rps": "worse", "egraph.matches": "worse"} {
		if got := row(out.String(), metric); got != want {
			t.Errorf("%s: verdict %q, want %q", metric, got, want)
		}
	}

	// Several runs whose spread exceeds the bound: unresolved, unless
	// every run of B beats every run of A.
	for i, v := range []float64{8, 10, 12, 14} {
		writeResult(t, dir, filepath.Join("noisy", "result-"+string(rune('a'+i))+".json"),
			map[string]float64{"latency_p50_ms": v, "throughput_rps": 100}, nil)
		writeResult(t, dir, filepath.Join("fast", "result-"+string(rune('a'+i))+".json"),
			map[string]float64{"latency_p50_ms": v / 4, "throughput_rps": 100}, nil)
	}
	out.Reset()
	if err := runCompare(&out, spec, filepath.Join(dir, "noisy"), filepath.Join(dir, "noisy")); err != nil {
		t.Fatal(err)
	}
	if got := row(out.String(), "latency_p50_ms"); got != "unresolved" {
		t.Errorf("noisy against itself: verdict %q, want unresolved", got)
	}
	out.Reset()
	if err := runCompare(&out, spec, filepath.Join(dir, "noisy"), filepath.Join(dir, "fast")); err != nil {
		t.Fatal(err)
	}
	if got := row(out.String(), "latency_p50_ms"); got != "ok" {
		t.Errorf("every fast run beats every noisy run: verdict %q, want ok", got)
	}
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and spec.go
// together.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	plain := func(ms []metric) []metric {
		out := make([]metric, len(ms))
		for i, m := range ms {
			m.exact = false
			out[i] = m
		}
		return out
	}
	if !reflect.DeepEqual(spec.EndToEnd, plain(endToEndMetrics)) {
		t.Errorf("end_to_end differs from spec.go:\n%v\n%v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, plain(perLayerMetrics)) {
		t.Errorf("per_layer differs from spec.go")
	}
}

func TestKnownAnswerGate(t *testing.T) {
	got, err := runGate(context.Background(), startInProcess)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(zooCombos()) + len(defectLabels) + 2; got.attempted != want || got.failed != 0 {
		t.Fatalf("gate: %d attempted (want %d), %d failed: %v", got.attempted, want, got.failed, got.problems)
	}
}

// TestSmokeAllWorkloads runs every workload in both modes against
// in-process nodes at a tiny scale.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := runConfig{seed: 3, scale: testScale, seconds: nominalSeconds, replicas: 1, workDir: t.TempDir(), outDir: t.TempDir()}
	ctx := context.Background()
	for _, name := range workloadNames {
		e2e, err := runE2E(ctx, startInProcess, name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e2e.failed != 0 || e2e.shapeViolations != 0 || e2e.attempted == 0 {
			t.Errorf("%s end to end: %d of %d failed, %d shape violations: %v", name, e2e.failed, e2e.attempted, e2e.shapeViolations, e2e.problems)
		}
		for _, m := range endToEndMetrics {
			// In-process nodes have no /proc entry of their own.
			if v := e2e.metrics[m.Name]; v <= 0 && m.Name != "cpu_ms_per_request" && m.Name != "peak_rss_mb" {
				t.Errorf("%s: %s = %v", name, m.Name, v)
			}
		}

		traced, err := runTraced(ctx, name, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if traced.failed != 0 || traced.metrics["harness.shape_violations"] != 0 {
			t.Errorf("%s traced: %d failed: %v", name, traced.failed, traced.problems)
		}
		if len(traced.metrics) != len(perLayerMetrics) {
			t.Errorf("%s traced: %d metrics, spec.go lists %d", name, len(traced.metrics), len(perLayerMetrics))
		}
		// Every layer is timed on every workload, whether or not the
		// workload's own requests go through it. (A prefix this short
		// may hold no HLO body, and its socket overhead is noise.)
		for _, m := range perLayerMetrics {
			if m.Name == "hlo.parse_ms" || m.Name == "server.http_overhead_ms" {
				continue
			}
			if (m.Unit == "ms" || m.Unit == "us") && traced.metrics[m.Name] <= 0 {
				t.Errorf("%s traced: %s = %v", name, m.Name, traced.metrics[m.Name])
			}
		}
		fleet := name == "fleet3_handoff"
		if got := traced.metrics["cluster.forwards_per_request"] > 0; got != fleet {
			t.Errorf("%s: cluster.forwards_per_request = %v", name, traced.metrics["cluster.forwards_per_request"])
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
