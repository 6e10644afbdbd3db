package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Layer 3: engine-source lint. Go randomizes map iteration order, so
// any `range` over a map that feeds e-graph mutation — unions, node
// insertion, match collection — makes checker output depend on the
// run. The engine promises byte-identical reports across runs and
// worker counts; this analyzer flags the code shapes that break that
// promise. It is a purely syntactic stdlib go/ast pass with
// package-local type heuristics (no go/types, no module resolution):
// it knows an expression is a map when the package's own declarations
// say so, which covers every hazard this codebase can express.
const (
	// CheckSourceMapRangeMutation fires when the body of a range over
	// a map reaches an e-graph mutator (Union, AddNode, AddTerm,
	// InstantiateOp, Saturate, or the lemma helpers addAll/mapKids):
	// iteration order then decides union order and freshly minted
	// class IDs.
	CheckSourceMapRangeMutation = "source-map-range-mutation"
	// CheckSourceMapRangeAppend fires when a range over a map appends
	// to a slice declared outside the loop and the function never
	// sorts that slice afterwards: the collection leaks map order to
	// its consumers.
	CheckSourceMapRangeAppend = "source-map-range-append"
)

// sinkMethods are the mutators whose call order is observable in
// e-graph state.
var sinkMethods = map[string]bool{
	"Union":         true,
	"AddNode":       true,
	"AddTerm":       true,
	"InstantiateOp": true,
	"Saturate":      true,
}

// sinkFuncs are package-local helpers that wrap the mutators.
var sinkFuncs = map[string]bool{
	"addAll":  true,
	"mapKids": true,
}

// ignoreDirective is the comment prefix that suppresses a finding on
// the next line: //lint:ignore <check-id> <reason>.
const ignoreDirective = "lint:ignore "

// Source lints the Go source files directly inside each directory
// (non-recursive, skipping _test.go files). Directories are analyzed
// independently, one package index each.
func Source(dirs ...string) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, dir := range dirs {
		ds, err := sourceDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}

func sourceDir(dir string) ([]Diagnostic, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	idx := indexPackage(files)
	deterministic := determinismScoped(dir)
	var out []Diagnostic
	for _, f := range files {
		ignores := collectIgnores(fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, lintFunc(fset, idx, fd, ignores)...)
		}
		if deterministic {
			out = append(out, lintDeterminism(fset, f, ignores)...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return posLess(out[i].Pos, out[j].Pos) })
	return out, nil
}

// pkgIndex is the package-local type knowledge the heuristics use.
type pkgIndex struct {
	mapNamedTypes map[string]bool // type X map[...]Y
	mapFields     map[string]bool // struct fields with map type (by field name)
	mapFuncs      map[string]bool // funcs/methods whose single result is a map
	mapGlobals    map[string]bool // package-level vars with map type
}

func indexPackage(files []*ast.File) *pkgIndex {
	idx := &pkgIndex{
		mapNamedTypes: map[string]bool{},
		mapFields:     map[string]bool{},
		mapFuncs:      map[string]bool{},
		mapGlobals:    map[string]bool{},
	}
	// Named map types first, so field/var/result checks can see them.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if _, isMap := ts.Type.(*ast.MapType); isMap {
					idx.mapNamedTypes[ts.Name.Name] = true
				}
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.StructType:
				for _, field := range d.Fields.List {
					if !idx.isMapTypeExpr(field.Type) {
						continue
					}
					for _, name := range field.Names {
						idx.mapFields[name.Name] = true
					}
				}
			case *ast.FuncDecl:
				if d.Type.Results != nil && len(d.Type.Results.List) == 1 &&
					len(d.Type.Results.List[0].Names) <= 1 &&
					idx.isMapTypeExpr(d.Type.Results.List[0].Type) {
					idx.mapFuncs[d.Name.Name] = true
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					return true
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					isMap := vs.Type != nil && idx.isMapTypeExpr(vs.Type)
					for i, name := range vs.Names {
						if isMap || (i < len(vs.Values) && idx.exprYieldsMap(vs.Values[i], nil)) {
							idx.mapGlobals[name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return idx
}

func (idx *pkgIndex) isMapTypeExpr(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.MapType:
		return true
	case *ast.Ident:
		return idx.mapNamedTypes[tt.Name]
	}
	return false
}

// exprYieldsMap reports whether an expression's value is (heuristically)
// a map: a map literal, make(map...), a call to a map-returning
// function of this package, or a name already known to hold a map.
func (idx *pkgIndex) exprYieldsMap(e ast.Expr, locals map[string]bool) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return idx.isMapTypeExpr(v.Type)
	case *ast.CallExpr:
		switch fn := v.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "make" && len(v.Args) > 0 {
				return idx.isMapTypeExpr(v.Args[0])
			}
			return idx.mapFuncs[fn.Name]
		case *ast.SelectorExpr:
			return idx.mapFuncs[fn.Sel.Name]
		}
	case *ast.Ident:
		return locals[v.Name] || idx.mapGlobals[v.Name]
	case *ast.SelectorExpr:
		return idx.mapFields[v.Sel.Name]
	}
	return false
}

// collectIgnores maps "file line" keys to the set of check IDs a
// //lint:ignore directive suppresses on that line.
func collectIgnores(fset *token.FileSet, f *ast.File) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignoreDirective) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
			if len(fields) == 0 {
				continue
			}
			pos := fset.Position(c.Pos())
			key := fmt.Sprintf("%s %d", pos.Filename, pos.Line+1)
			if out[key] == nil {
				out[key] = map[string]bool{}
			}
			out[key][fields[0]] = true
		}
	}
	return out
}

func lintFunc(fset *token.FileSet, idx *pkgIndex, fd *ast.FuncDecl, ignores map[string]map[string]bool) []Diagnostic {
	locals := localMapNames(idx, fd)
	var out []Diagnostic
	subject := funcSubject(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !idx.exprYieldsMap(rng.X, locals) {
			return true
		}
		pos := fset.Position(rng.Pos())
		suppressed := ignores[fmt.Sprintf("%s %d", pos.Filename, pos.Line)]
		posStr := fmt.Sprintf("%s:%d:%d", pos.Filename, pos.Line, pos.Column)

		if sink := firstSinkCall(rng.Body); sink != "" && !suppressed[CheckSourceMapRangeMutation] {
			out = append(out, Diagnostic{
				Check: CheckSourceMapRangeMutation, Severity: SevError,
				Subject: subject, Pos: posStr,
				Message: fmt.Sprintf("range over a map reaches %s: map iteration order decides union order and minted class IDs, so checker output varies across runs; iterate sorted keys instead", sink),
			})
		}
		if suppressed[CheckSourceMapRangeAppend] {
			return true
		}
		for _, target := range unsortedAppendTargets(fd.Body, rng) {
			out = append(out, Diagnostic{
				Check: CheckSourceMapRangeAppend, Severity: SevWarning,
				Subject: subject, Pos: posStr,
				Message: fmt.Sprintf("range over a map appends to %q, which is never sorted afterwards: the slice leaks map iteration order to its consumers", target),
			})
		}
		return true
	})
	return out
}

func receiverTypeName(t ast.Expr) string {
	switch tt := t.(type) {
	case *ast.StarExpr:
		return receiverTypeName(tt.X)
	case *ast.Ident:
		return tt.Name
	}
	return ""
}

// localMapNames gathers identifiers with map type within a function:
// parameters, named results, receivers, var declarations, and
// assignments from map-yielding expressions. A single in-order pass
// matches how shadowing reads in practice for this codebase.
func localMapNames(idx *pkgIndex, fd *ast.FuncDecl) map[string]bool {
	locals := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !idx.isMapTypeExpr(field.Type) {
				continue
			}
			for _, name := range field.Names {
				locals[name.Name] = true
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i := range s.Lhs {
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if idx.exprYieldsMap(s.Rhs[i], locals) {
					locals[id.Name] = true
				}
			}
		case *ast.GenDecl:
			if s.Tok != token.VAR {
				return true
			}
			for _, spec := range s.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				isMap := vs.Type != nil && idx.isMapTypeExpr(vs.Type)
				for i, name := range vs.Names {
					if isMap || (i < len(vs.Values) && idx.exprYieldsMap(vs.Values[i], locals)) {
						locals[name.Name] = true
					}
				}
			}
		}
		return true
	})
	return locals
}

// firstSinkCall returns the rendered name of the first e-graph
// mutator called (syntactically) inside a statement tree, or "".
func firstSinkCall(body ast.Node) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if sinkMethods[fn.Sel.Name] {
				found = fn.Sel.Name
			}
		case *ast.Ident:
			if sinkFuncs[fn.Name] {
				found = fn.Name
			}
		}
		return true
	})
	return found
}

// unsortedAppendTargets returns names of slices that the range body
// appends to, that were declared outside the body, and that the
// enclosing function never sorts after the range statement. Sorting
// is recognized as any call after the range whose callee mentions
// sorting (the sort package, or a helper named sort*/;*Sort*) with
// the slice among its arguments.
func unsortedAppendTargets(funcBody *ast.BlockStmt, rng *ast.RangeStmt) []string {
	declaredInBody := map[string]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						declaredInBody[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				declaredInBody[name.Name] = true
			}
		}
		return true
	})

	var targets []string
	seen := map[string]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || declaredInBody[id.Name] || seen[id.Name] {
				continue
			}
			seen[id.Name] = true
			if !sortedAfter(funcBody, rng, id.Name) {
				targets = append(targets, id.Name)
			}
		}
		return true
	})
	sort.Strings(targets)
	return targets
}

// sortedAfter reports whether, after the range statement, the
// function calls something sort-like with name among the arguments.
func sortedAfter(funcBody *ast.BlockStmt, rng *ast.RangeStmt, name string) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := ""
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			if x, ok := fn.X.(*ast.Ident); ok && x.Name == "sort" {
				callee = "sort"
			} else {
				callee = fn.Sel.Name
			}
		case *ast.Ident:
			callee = fn.Name
		}
		if callee != "sort" && !strings.Contains(strings.ToLower(callee), "sort") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// posLess orders "file:line:col" strings numerically.
func posLess(a, b string) bool {
	af, al, ac := splitPos(a)
	bf, bl, bc := splitPos(b)
	if af != bf {
		return af < bf
	}
	if al != bl {
		return al < bl
	}
	return ac < bc
}

func splitPos(p string) (file string, line, col int) {
	parts := strings.Split(p, ":")
	if len(parts) < 3 {
		return p, 0, 0
	}
	file = strings.Join(parts[:len(parts)-2], ":")
	fmt.Sscanf(parts[len(parts)-2], "%d", &line)
	fmt.Sscanf(parts[len(parts)-1], "%d", &col)
	return file, line, col
}
