package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// Determinism check: the checker promises byte-identical reports
// across runs, and the model checker promises bit-identical traces —
// promises that a single wall-clock read or random draw on a hot path
// silently breaks. This check flags time.Now/Since/Until, any rand.*
// call, and context.WithTimeout/WithDeadline (a deadline that can end a
// search decides what a verdict says by the wall clock) inside the
// packages that carry the determinism contract.
// Legitimate uses (duration metadata on reports, seeded test harness
// helpers) are annotated in place:
//
//	//lint:ignore determinism <why this read cannot affect results>
//
// on the line directly above the call.
const CheckDeterminism = "determinism"

// determinismDirs are the hot-path packages under the determinism
// contract, matched by path suffix so relative and absolute dir
// arguments both land.
var determinismDirs = []string{
	"internal/cluster",
	"internal/cluster/sim",
	"internal/core",
	"internal/det",
	"internal/egraph",
	"internal/faultinject",
	"internal/fingerprint",
	"internal/fuzz",
	"internal/mc",
	"internal/mc/models",
}

func determinismScoped(dir string) bool {
	d := filepath.ToSlash(filepath.Clean(dir))
	for _, suffix := range determinismDirs {
		if d == suffix || strings.HasSuffix(d, "/"+suffix) {
			return true
		}
	}
	return false
}

// clockFuncs are the time-package functions that read the wall clock.
var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// deadlineFuncs are the context-package functions that set a
// wall-clock deadline.
var deadlineFuncs = map[string]bool{
	"WithTimeout":  true,
	"WithDeadline": true,
}

// lintDeterminism flags nondeterminism sources in one file. Purely
// syntactic, like the rest of the source lint: a selector call on an
// identifier named time, rand or context is what this codebase's
// hazards look like (a local shadowing those names would be its own
// problem).
func lintDeterminism(fset *token.FileSet, f *ast.File, ignores map[string]map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, decl := range f.Decls {
		subject := "package-level"
		var body ast.Node = decl
		if fd, ok := decl.(*ast.FuncDecl); ok {
			if fd.Body == nil {
				continue
			}
			subject = funcSubject(fd)
			body = fd.Body
		}
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			var what string
			switch {
			case pkg.Name == "time" && clockFuncs[sel.Sel.Name]:
				what = "reads the wall clock"
			case pkg.Name == "rand":
				what = "draws unseeded-by-contract randomness"
			case pkg.Name == "context" && deadlineFuncs[sel.Sel.Name]:
				what = "sets a wall-clock deadline"
			default:
				return true
			}
			pos := fset.Position(call.Pos())
			if ignores[fmt.Sprintf("%s %d", pos.Filename, pos.Line)][CheckDeterminism] {
				return true
			}
			out = append(out, Diagnostic{
				Check: CheckDeterminism, Severity: SevError,
				Subject: subject,
				Pos:     fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column),
				Message: fmt.Sprintf("%s.%s %s inside a package under the determinism contract (byte-identical output across runs); derive the value from inputs or annotate the line above with //lint:ignore %s <reason>", pkg.Name, sel.Sel.Name, what, CheckDeterminism),
			})
			return true
		})
	}
	return out
}

func funcSubject(fd *ast.FuncDecl) string {
	subject := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if t := receiverTypeName(fd.Recv.List[0].Type); t != "" {
			subject = t + "." + subject
		}
	}
	return subject
}
