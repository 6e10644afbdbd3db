package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/lint"
	"entangle/internal/models"
	"entangle/internal/shape"
)

// TestMain makes the test binary double as the command: a child started
// with ENTANGLE_LINT_MAIN set runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ENTANGLE_LINT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lintFiles runs entangle-lint on args in a child process and returns
// its stdout, its stderr and its exit status.
func lintFiles(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ENTANGLE_LINT_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var ee *exec.ExitError
	if err := cmd.Run(); errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), exit
}

// writeFile writes one graph file into dir through write.
func writeFile(t *testing.T, dir, name string, write func(*bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLintGraphFiles: a generated model pair lints clean as JSON and as
// HLO text; a graph whose node shapes disagree is refused when read,
// naming the file; a Go source directory with an error-severity finding
// exits 1; -json carries the findings; a file that cannot be read exits 2.
func TestLintGraphFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pair []string
	for name, g := range map[string]*graph.Graph{"seq": b.Gs, "dist": b.Gd} {
		pair = append(pair,
			writeFile(t, dir, name+".json", func(w *bytes.Buffer) error { return g.Write(w) }),
			writeFile(t, dir, name+".hlo", func(w *bytes.Buffer) error { return hlo.Print(w, g) }))
	}
	out, errOut, exit := lintFiles(t, append([]string{"-registry=false"}, pair...)...)
	if exit != 0 || out != "0 findings (0 errors, 0 warnings)\n" {
		t.Fatalf("generated pair: exit %d\n%s%s", exit, out, errOut)
	}

	// No graph file can carry a node whose declared output shape
	// disagrees with inference: both readers infer every output shape
	// and refuse a node that inference rejects.
	mismatch := filepath.Join(dir, "mismatch.json")
	if err := os.WriteFile(mismatch, []byte(`{"name": "g",
		"inputs": [{"name": "a", "shape": ["4", "4"]}, {"name": "b", "shape": ["4", "3"]}],
		"nodes": [{"op": "add", "inputs": ["a", "b"], "outputs": ["c"], "label": "sum"}],
		"outputs": ["c"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errOut, exit := lintFiles(t, "-registry=false", mismatch); exit != 2 || !strings.Contains(errOut, "mismatch.json: ") {
		t.Fatalf("mismatched shapes: exit %d, stderr %q", exit, errOut)
	}

	src := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "clock.go"), []byte("package core\n\nimport \"time\"\n\nfunc now() time.Time { return time.Now() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, errOut, exit := lintFiles(t, "-registry=false", src); exit != 1 || !strings.Contains(out, "["+lint.CheckDeterminism+"]") {
		t.Fatalf("source error: exit %d\n%s%s", exit, out, errOut)
	}

	bd := graph.NewBuilder("unused", nil)
	x := bd.Input("x", shape.Of(2, 2))
	bd.Input("idle", shape.Of(2, 2))
	bd.Output(bd.Unary("act", "gelu", x))
	g := bd.MustBuild()
	unused := writeFile(t, dir, "unused.hlo", func(w *bytes.Buffer) error { return hlo.Print(w, g) })
	out, errOut, exit = lintFiles(t, "-registry=false", "-json", unused)
	var report struct{ Diagnostics []map[string]string }
	if err := json.Unmarshal([]byte(out), &report); exit != 0 || err != nil {
		t.Fatalf("-json: exit %d, %v\n%s%s", exit, err, out, errOut)
	}
	if want := []map[string]string{{"check": lint.CheckGraphUnusedInput, "severity": "warning", "subject": unused + ": idle",
		"message": "graph input is never read by any node"}}; !reflect.DeepEqual(report.Diagnostics, want) {
		t.Fatalf("-json findings: %v", report.Diagnostics)
	}

	if _, errOut, exit := lintFiles(t, filepath.Join(dir, "absent.json")); exit != 2 || !strings.Contains(errOut, "absent.json") {
		t.Fatalf("unreadable file: exit %d, stderr %q", exit, errOut)
	}
}
