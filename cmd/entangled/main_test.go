package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestREADMEFlagTable fails when README's daemon flag table and the
// flags entangled defines disagree in either direction.
func TestREADMEFlagTable(t *testing.T) {
	const marker = "<!-- flags: entangled -->"
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
	fs, _ := newFlagSet("entangled")
	fs.VisitAll(func(f *flag.Flag) {
		if !rows[f.Name] {
			t.Errorf("flag -%s has no row in README.md's entangled flag table", f.Name)
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("README.md tabulates -%s, which entangled does not define", name)
	}
}
