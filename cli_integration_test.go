package entangle_test

// End-to-end CLI integration: build the three binaries once and drive
// the artifact workflow of the paper's appendix B — generate graphs,
// verify, detect a bug, check an expectation — through real process
// boundaries and file formats.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"entangle"
	"entangle/internal/server"
)

func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, wantExit int, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	if exit != wantExit {
		t.Fatalf("%s %v: exit %d want %d\n%s", bin, args, exit, wantExit, out)
	}
	return string(out)
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "./cmd/entangle-graphgen")
	check := buildTool(t, dir, "./cmd/entangle")

	// 1. Generate a correct GPT pair and verify it.
	prefix := filepath.Join(dir, "gpt")
	run(t, gen, 0, "-model", "gpt", "-tp", "2", "-o", prefix)
	out := run(t, check, 0,
		"-gs", prefix+"-seq.json", "-gd", prefix+"-dist.json", "-rel", prefix+"-relation.json")
	if !strings.Contains(out, "refinement verified") {
		t.Fatalf("verify output:\n%s", out)
	}

	// 2. Inject bug 4 and confirm detection + localization via exit 1.
	bug := filepath.Join(dir, "moebug")
	run(t, gen, 0, "-model", "seedmoe", "-tp", "2", "-bug", "4", "-o", bug)
	out = run(t, check, 1,
		"-gs", bug+"-seq.json", "-gd", bug+"-dist.json", "-rel", bug+"-relation.json")
	if !strings.Contains(out, "REFINEMENT FAILED") || !strings.Contains(out, "expert0/fc1") {
		t.Fatalf("bug output:\n%s", out)
	}

	// 3. HLO format round trip through the CLI.
	llx := filepath.Join(dir, "llama")
	run(t, gen, 0, "-model", "llama", "-tp", "2", "-format", "hlo", "-o", llx)
	out = run(t, check, 0, "-format", "hlo",
		"-gs", llx+"-seq.hlo", "-gd", llx+"-dist.hlo", "-rel", llx+"-relation.json")
	if !strings.Contains(out, "refinement verified") {
		t.Fatalf("hlo verify output:\n%s", out)
	}

	// 4. §4.4 expectation: holds with the right concat, violated with
	// the wrong dim.
	good := filepath.Join(dir, "expect-good.json")
	os.WriteFile(good, []byte(`{"fs": "lm_head.out", "fd": "concat(r0/lm_head.out, r1/lm_head.out, dim=1)"}`), 0o644)
	out = run(t, check, 0,
		"-gs", prefix+"-seq.json", "-gd", prefix+"-dist.json", "-rel", prefix+"-relation.json",
		"-expect", good)
	if !strings.Contains(out, "user expectation verified") {
		t.Fatalf("expectation output:\n%s", out)
	}
	bad := filepath.Join(dir, "expect-bad.json")
	os.WriteFile(bad, []byte(`{"fs": "lm_head.out", "fd": "concat(r0/lm_head.out, r1/lm_head.out, dim=0)"}`), 0o644)
	out = run(t, check, 1,
		"-gs", prefix+"-seq.json", "-gd", prefix+"-dist.json", "-rel", prefix+"-relation.json",
		"-expect", bad)
	if !strings.Contains(out, "EXPECTATION VIOLATED") {
		t.Fatalf("violated expectation output:\n%s", out)
	}

	// 5. Usage errors exit 2.
	run(t, check, 2)

	// 6. -keep-going on the buggy model still exits 1 and reports the
	// failing operator plus its skipped downstream cone.
	out = run(t, check, 1, "-keep-going",
		"-gs", bug+"-seq.json", "-gd", bug+"-dist.json", "-rel", bug+"-relation.json")
	if !strings.Contains(out, "REFINEMENT FAILED") || !strings.Contains(out, "expert0/fc1") {
		t.Fatalf("keep-going bug output:\n%s", out)
	}
	if !strings.Contains(out, "skipped") {
		t.Fatalf("keep-going output must list the skipped cone:\n%s", out)
	}

	// 7. An immediately-expired -timeout cancels the run: exit 3, with
	// the cancellation named rather than a refinement verdict.
	out = run(t, check, 3, "-timeout", "1ns",
		"-gs", prefix+"-seq.json", "-gd", prefix+"-dist.json", "-rel", prefix+"-relation.json")
	if !strings.Contains(out, "cancelled") {
		t.Fatalf("timeout output:\n%s", out)
	}
	// An expectation runs under the same context: an expired -timeout
	// cancels it too, rather than verifying it.
	out = run(t, check, 3, "-timeout", "1ns",
		"-gs", prefix+"-seq.json", "-gd", prefix+"-dist.json", "-rel", prefix+"-relation.json",
		"-expect", good)
	if !strings.Contains(out, "expectation cancelled") {
		t.Fatalf("expectation timeout output:\n%s", out)
	}

	// 8. -cache: the second (warm) run replays every verdict from the
	// cold run's store yet prints a byte-identical report — the only
	// divergence allowed is the wall-clock token, masked here. A third
	// run at a different worker count must agree too.
	cacheDir := filepath.Join(dir, "vcache")
	cacheArgs := []string{"-cache", cacheDir, "-v",
		"-gs", prefix + "-seq.json", "-gd", prefix + "-dist.json", "-rel", prefix + "-relation.json"}
	cold := run(t, check, 0, cacheArgs...)
	warm := run(t, check, 0, cacheArgs...)
	warm8 := run(t, check, 0, append([]string{"-workers", "8"}, cacheArgs...)...)
	if !strings.Contains(cold, "refinement verified") {
		t.Fatalf("cold cache run:\n%s", cold)
	}
	clock := regexp.MustCompile(`checked in [^)]*\)`)
	mask := func(s string) string { return clock.ReplaceAllString(s, "checked in X)") }
	if mask(warm) != mask(cold) {
		t.Fatalf("warm cache report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if mask(warm8) != mask(cold) {
		t.Fatalf("warm 8-worker report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm8)
	}
}

// TestCLIDiff drives the -diff mode through the file formats: write an
// old/new graph pair where the edit swaps one add's operands (a
// refinement-preserving change whose cone fingerprint still moves),
// diff them against a shared G_d and relation sidecar, and check that
// only the edit's downstream cone was re-checked. A second diff of the
// graph against itself must replay everything; a semantically broken
// edit must exit 1 and name the newly failing operator.
func TestCLIDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	check := buildTool(t, dir, "./cmd/entangle")

	buildGd := func() *entangle.Graph {
		bd := entangle.NewBuilder("Gd", nil)
		half := entangle.ShapeOf(2, 6)
		X0, X1 := bd.Input("X0", half), bd.Input("X1", half)
		Y0, Y1 := bd.Input("Y0", half), bd.Input("Y1", half)
		V0, V1 := bd.Input("V0", half), bd.Input("V1", half)
		Z0 := bd.Unary("r0/act", "gelu", bd.Add("r0/adder", X0, Y0))
		Z1 := bd.Unary("r1/act", "gelu", bd.Add("r1/adder", X1, Y1))
		U0 := bd.Unary("r0/side", "gelu", V0)
		U1 := bd.Unary("r1/side", "gelu", V1)
		bd.Output(Z0, Z1, U0, U1)
		return bd.MustBuild()
	}
	buildGs := func(swap bool, fn string) *entangle.Graph {
		bs := entangle.NewBuilder("Gs", nil)
		X := bs.Input("X", entangle.ShapeOf(4, 6))
		Y := bs.Input("Y", entangle.ShapeOf(4, 6))
		V := bs.Input("V", entangle.ShapeOf(4, 6))
		a, b := X, Y
		if swap {
			a, b = Y, X
		}
		Z := bs.Unary("act", fn, bs.Add("adder", a, b))
		U := bs.Unary("side", "gelu", V)
		bs.Output(Z, U)
		return bs.MustBuild()
	}
	writeGraph := func(name string, g *entangle.Graph) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := entangle.WriteGraph(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	gdPath := writeGraph("gd.json", buildGd())
	oldPath := writeGraph("old.json", buildGs(false, "gelu"))
	newPath := writeGraph("new.json", buildGs(true, "gelu"))
	brokenPath := writeGraph("broken.json", buildGs(false, "relu"))
	relPath := filepath.Join(dir, "relation.json")
	os.WriteFile(relPath, []byte(`{
		"X": ["concat(X0, X1, dim=0)"],
		"Y": ["concat(Y0, Y1, dim=0)"],
		"V": ["concat(V0, V1, dim=0)"]}`), 0o644)
	cacheDir := filepath.Join(dir, "vcache")

	// 1. The swapped edit: the untouched side branch replays, the
	// adder and its consumer re-check, and the run exits 0.
	out := run(t, check, 0, "-diff", "-gd", gdPath, "-rel", relPath, "-cache", cacheDir, oldPath, newPath)
	if !strings.Contains(out, "3 ops — 1 unchanged (1 replayed), 2 re-checked") {
		t.Fatalf("diff output:\n%s", out)
	}
	if !strings.Contains(out, "adder: check (cone changed) -> refined") {
		t.Fatalf("diff output misses the edited operator:\n%s", out)
	}

	// 2. Diffing a graph against itself on the now-warm cache replays
	// every verdict.
	out = run(t, check, 0, "-diff", "-gd", gdPath, "-rel", relPath, "-cache", cacheDir, oldPath, oldPath)
	if !strings.Contains(out, "3 ops — 3 unchanged (3 replayed), 0 re-checked") {
		t.Fatalf("self-diff output:\n%s", out)
	}

	// 3. A semantic break exits 1 and classifies the operator as newly
	// failing.
	out = run(t, check, 1, "-diff", "-gd", gdPath, "-rel", relPath, "-cache", cacheDir, oldPath, brokenPath)
	if !strings.Contains(out, "newly failing:") || !strings.Contains(out, "REFINEMENT FAILED") {
		t.Fatalf("broken diff output:\n%s", out)
	}

	// 4. Usage errors exit 2.
	run(t, check, 2, "-diff", oldPath)
}

// TestCLIDaemon drives cmd/entangled end to end: start it with an
// on-disk cache, submit the same graphgen-produced model twice, watch
// /v1/stats report warm hits, then SIGTERM and expect a graceful
// drain with exit status 0.
func TestCLIDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "./cmd/entangle-graphgen")
	daemon := buildTool(t, dir, "./cmd/entangled")

	prefix := filepath.Join(dir, "gpt")
	run(t, gen, 0, "-model", "gpt", "-tp", "2", "-o", prefix)
	readFile := func(path string) json.RawMessage {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	body, err := json.Marshal(map[string]json.RawMessage{
		"gs":  readFile(prefix + "-seq.json"),
		"gd":  readFile(prefix + "-dist.json"),
		"rel": readFile(prefix + "-relation.json"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a port, release it, and hand it to the daemon.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(daemon, "-addr", addr, "-cache", filepath.Join(dir, "vcache"))
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := "http://" + addr

	// Wait for liveness.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	check := func() map[string]any {
		resp, err := http.Post(base+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || cr["verdict"] != "refined" {
			t.Fatalf("check: status %d body %v", resp.StatusCode, cr)
		}
		return cr
	}
	cold := check()
	warm := check()
	if fmt.Sprint(warm["output_relation"]) != fmt.Sprint(cold["output_relation"]) {
		t.Fatalf("warm relation differs:\n  cold: %v\n  warm: %v", cold["output_relation"], warm["output_relation"])
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests int64 `json:"requests"`
		Refined  int64 `json:"refined"`
		Cache    struct {
			Hits int64 `json:"hits"`
		} `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 2 || stats.Refined != 2 || stats.Cache.Hits == 0 {
		t.Fatalf("stats after warm submission: %+v", stats)
	}

	// Graceful drain on SIGTERM: exit 0, drain announced on stderr.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Fatalf("daemon stderr missing drain notice:\n%s", stderr.String())
	}
}

// agreement is the one table the two front ends meet through: a CLI
// exit code and the HTTP statuses that say the same thing.
var agreement = map[int][]int{
	0: {http.StatusOK},
	1: {http.StatusUnprocessableEntity},
	2: {http.StatusBadRequest, http.StatusInternalServerError},
	3: {http.StatusServiceUnavailable},
}

// TestCLIAndDaemonAgree runs the same problems through cmd/entangle and
// through /v1/check — a clean pair, the six Table-3 defects a plain
// refinement check reaches, a malformed graph, an unmapped input, an
// expired deadline, in first-error and keep-going mode — and requires
// exit code and status to meet in the agreement table. Both are
// renderings of core.Classify; neither may mean something else by
// "failed".
func TestCLIAndDaemonAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "./cmd/entangle-graphgen")
	check := buildTool(t, dir, "./cmd/entangle")
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()

	type problem struct {
		name, gs, gd, rel, timeout string
		wantExit                   int
	}
	generate := func(name string, wantExit int, args ...string) problem {
		prefix := filepath.Join(dir, name)
		run(t, gen, 0, append(args, "-o", prefix)...)
		return problem{name: name, gs: prefix + "-seq.json", gd: prefix + "-dist.json", rel: prefix + "-relation.json", wantExit: wantExit}
	}
	clean := generate("clean", 0, "-model", "gpt", "-tp", "2")
	problems := []problem{clean}
	for _, bug := range []string{"1", "2", "3", "4"} {
		problems = append(problems, generate("bug"+bug, 1, "-model", "seedmoe", "-tp", "2", "-bug", bug))
	}
	problems = append(problems,
		generate("bug6", 1, "-model", "regression", "-tp", "2", "-bug", "6"),
		generate("bug7", 1, "-model", "gpt", "-tp", "2", "-bug", "7"))

	malformed := clean
	malformed.name, malformed.gd, malformed.wantExit = "malformed graph", filepath.Join(dir, "malformed.json"), 2
	os.WriteFile(malformed.gd, []byte(`[]`), 0o644)

	var rel map[string][]string
	data, err := os.ReadFile(clean.rel)
	if err != nil || json.Unmarshal(data, &rel) != nil {
		t.Fatalf("reading %s: %v", clean.rel, err)
	}
	for name := range rel {
		delete(rel, name) // any one input
		break
	}
	unmapped := clean
	unmapped.name, unmapped.rel, unmapped.wantExit = "unmapped input", filepath.Join(dir, "unmapped.json"), 2
	data, _ = json.Marshal(rel)
	os.WriteFile(unmapped.rel, data, 0o644)

	expired := clean
	expired.name, expired.timeout, expired.wantExit = "expired deadline", "1ns", 3
	problems = append(problems, malformed, unmapped, expired)

	for _, p := range problems {
		for _, keepGoing := range []bool{false, true} {
			args := []string{"-gs", p.gs, "-gd", p.gd, "-rel", p.rel}
			body := map[string]any{"keep_going": keepGoing}
			for field, path := range map[string]string{"gs": p.gs, "gd": p.gd, "rel": p.rel} {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				body[field] = json.RawMessage(raw)
			}
			if keepGoing {
				args = append(args, "-keep-going")
			}
			if p.timeout != "" {
				args, body["timeout"] = append(args, "-timeout", p.timeout), p.timeout
			}
			run(t, check, p.wantExit, args...)

			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			agrees := false
			for _, status := range agreement[p.wantExit] {
				agrees = agrees || status == resp.StatusCode
			}
			if !agrees {
				t.Errorf("%s (keep-going %v): the CLI exits %d, the daemon answers %d; want one of %v",
					p.name, keepGoing, p.wantExit, resp.StatusCode, agreement[p.wantExit])
			}
		}
	}
}
