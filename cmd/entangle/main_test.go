package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// readmeFlags returns the flags tabulated in README.md under marker:
// the first cell of every row of the table that follows it.
func readmeFlags(t *testing.T, marker string) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, found := strings.Cut(string(readme), marker)
	if !found {
		t.Fatalf("README.md has no %q marker", marker)
	}
	table, _, _ := strings.Cut(strings.TrimLeft(after, "\n"), "\n\n")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)").FindAllStringSubmatch(table, -1) {
		rows[m[1]] = true
	}
	return rows
}

// TestREADMEFlagTable fails when README's flag table and the flags the
// command defines disagree in either direction.
func TestREADMEFlagTable(t *testing.T) {
	rows := readmeFlags(t, "<!-- flags: entangle -->")
	fs, _ := newFlagSet("entangle")
	fs.VisitAll(func(f *flag.Flag) {
		if !rows[f.Name] {
			t.Errorf("flag -%s has no row in README.md's entangle flag table", f.Name)
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("README.md tabulates -%s, which entangle does not define", name)
	}
}

// TestRunContextCancelsOnSIGTERM: `kill <pid>` takes the same
// cancellation path as Ctrl-C and -timeout (exit 3, not the default
// disposition's abrupt death). The signal is sent to this process, so
// the test only passes if runContext is holding it.
func TestRunContextCancelsOnSIGTERM(t *testing.T) {
	ctx, stop := runContext(0)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done() // a process that did not register SIGTERM is gone by now

	ctx, stop = runContext(time.Nanosecond)
	defer stop()
	<-ctx.Done()
	if ctx.Err() == nil {
		t.Fatal("an expired -timeout must cancel the run context")
	}
}
