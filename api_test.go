package entangle

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"entangle/internal/lemmas"
)

// buildFigure1 constructs the paper's running example through the
// public API.
func buildFigure1() (*Graph, *Graph, *Relation, error) {
	bs := NewBuilder("Gs", nil)
	A := bs.Input("A", ShapeOf(4, 8))
	B := bs.Input("B", ShapeOf(8, 6))
	E := bs.Input("E", ShapeOf(4, 6))
	C := bs.MatMul("matmul", A, B)
	F := bs.Sub("matsub", C, E)
	bs.Output(F)
	gs, err := bs.Build()
	if err != nil {
		return nil, nil, nil, err
	}

	bd := NewBuilder("Gd", nil)
	A1 := bd.Input("A1", ShapeOf(4, 4))
	A2 := bd.Input("A2", ShapeOf(4, 4))
	B1 := bd.Input("B1", ShapeOf(4, 6))
	B2 := bd.Input("B2", ShapeOf(4, 6))
	E0 := bd.Input("E0", ShapeOf(2, 6))
	E1 := bd.Input("E1", ShapeOf(2, 6))
	C1 := bd.MatMul("r0/matmul", A1, B1)
	C2 := bd.MatMul("r1/matmul", A2, B2)
	D := bd.ReduceScatter("rs", 0, C1, C2)
	F1 := bd.Sub("r0/matsub", D[0], E0)
	F2 := bd.Sub("r1/matsub", D[1], E1)
	bd.Output(F1, F2)
	gd, err := bd.Build()
	if err != nil {
		return nil, nil, nil, err
	}

	ri := NewRelation()
	leaf := func(name string) *Term {
		t, _ := gd.TensorByName(name)
		return GdLeaf(t)
	}
	aT, _ := gs.TensorByName("A")
	bT, _ := gs.TensorByName("B")
	eT, _ := gs.TensorByName("E")
	ri.Add(aT.ID, Concat1(1, leaf("A1"), leaf("A2")))
	ri.Add(bT.ID, Concat1(0, leaf("B1"), leaf("B2")))
	ri.Add(eT.ID, Concat1(0, leaf("E0"), leaf("E1")))
	return gs, gd, ri, nil
}

func TestPublicAPIFigure1(t *testing.T) {
	gs, gd, ri, err := buildFigure1()
	if err != nil {
		t.Fatal(err)
	}
	report, err := NewChecker(CheckerOptions{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := gs.TensorByName("matsub.out")
	maps := report.OutputRelation.Get(f.ID)
	if len(maps) == 0 {
		t.Fatal("no output mapping")
	}
	if got := maps[0].String(); got != "concat(r0/matsub.out, r1/matsub.out, dim=0)" {
		t.Fatalf("unexpected mapping %q", got)
	}
}

func TestPublicAPIErrorTypes(t *testing.T) {
	gs, gd, ri, err := buildFigure1()
	if err != nil {
		t.Fatal(err)
	}
	// Break the relation: swap the concat dim of A.
	aT, _ := gs.TensorByName("A")
	bad := NewRelation()
	a1, _ := gd.TensorByName("A1")
	a2, _ := gd.TensorByName("A2")
	bad.Add(aT.ID, Concat1(0, GdLeaf(a1), GdLeaf(a2)))
	for _, id := range ri.Tensors() {
		if id != aT.ID {
			for _, m := range ri.Get(id) {
				bad.Add(id, m)
			}
		}
	}
	_, err = NewChecker(CheckerOptions{}).Check(gs, gd, bad)
	var re *RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("want RefinementError, got %v", err)
	}
}

func TestPublicAPIJSONAndHLO(t *testing.T) {
	gs, _, _, err := buildFigure1()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, gs); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.OperatorCount() != gs.OperatorCount() {
		t.Fatal("json round trip lost nodes")
	}
	buf.Reset()
	if err := PrintHLO(&buf, gs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HloModule Gs") {
		t.Fatal("missing module header")
	}
	g3, err := ParseHLO(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g3.OperatorCount() != gs.OperatorCount() {
		t.Fatal("hlo round trip lost nodes")
	}
}

func TestPublicAPISymbolics(t *testing.T) {
	ctx := NewSymContext()
	S := Sym("S")
	ctx.AssumeGE(S, SymConst(2))
	b := NewBuilder("g", ctx)
	x := b.Input("x", Shape{S, SymConst(4)})
	y := b.Unary("act", "gelu", x)
	b.Output(y)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultLemmasExposed(t *testing.T) {
	if got, want := DefaultLemmas().Fingerprint(), lemmas.Default().Fingerprint(); got != want {
		t.Fatalf("DefaultLemmas fingerprint %s, the built-in library's %s", got, want)
	}
}

func ExampleChecker_Check() {
	gs, gd, ri, err := buildFigure1()
	if err != nil {
		panic(err)
	}
	report, err := NewChecker(CheckerOptions{}).Check(gs, gd, ri)
	if err != nil {
		panic(err)
	}
	f, _ := gs.TensorByName("matsub.out")
	fmt.Println("F =", report.OutputRelation.Get(f.ID)[0])
	// Output: F = concat(r0/matsub.out, r1/matsub.out, dim=0)
}

// TestREADMEOptionsTable fails when README's options table and the
// exported fields of CheckerOptions and VerdictCacheConfig disagree in
// either direction: a new knob needs a row.
func TestREADMEOptionsTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, found := strings.Cut(string(readme), "<!-- options: CheckerOptions -->")
	if !found {
		t.Fatal("README.md has no options table marker")
	}
	table, _, _ := strings.Cut(strings.TrimLeft(after, "\n"), "\n\n")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(\\w+\\.\\w+)`").FindAllStringSubmatch(table, -1) {
		rows[m[1]] = true
	}
	for name, typ := range map[string]reflect.Type{
		"CheckerOptions":     reflect.TypeOf(CheckerOptions{}),
		"VerdictCacheConfig": reflect.TypeOf(VerdictCacheConfig{}),
	} {
		for _, f := range reflect.VisibleFields(typ) {
			if !f.IsExported() {
				continue
			}
			if !rows[name+"."+f.Name] {
				t.Errorf("%s.%s has no row in README.md's options table", name, f.Name)
			}
			delete(rows, name+"."+f.Name)
		}
	}
	for row := range rows {
		t.Errorf("README.md tabulates %s, which is not an exported field", row)
	}
}

// TestExperimentsCitationsResolve fails when DESIGN.md or README.md
// cites a section of EXPERIMENTS.md, as "(EXPERIMENTS.md, Cache)", that
// no "## Cache" or "## Cache — …" heading opens.
func TestExperimentsCitationsResolve(t *testing.T) {
	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile("(?m)^## (.+)$").FindAllStringSubmatch(string(experiments), -1)
	cites := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`\(EXPERIMENTS\.md,\s+([^)]+)\)`).FindAllStringSubmatch(string(text), -1) {
			cites++
			section := strings.Join(strings.Fields(m[1]), " ")
			if !slices.ContainsFunc(headings, func(h []string) bool {
				return h[1] == section || strings.HasPrefix(h[1], section+" — ")
			}) {
				t.Errorf("%s cites EXPERIMENTS.md section %q, which no ## heading opens", doc, section)
			}
		}
	}
	if cites == 0 {
		t.Error("DESIGN.md and README.md cite no EXPERIMENTS.md section: the citation pattern matches nothing")
	}
}
