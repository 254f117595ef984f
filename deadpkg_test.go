package presp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyPackages are internal packages that exist for tests alone, so
// no production file imports them.
var testOnlyPackages = map[string]bool{
	"presp/internal/leakcheck": true,
}

// TestNoDeadInternalPackages fails when a package under internal/ has
// no importer among the non-test Go files outside itself (the nested
// perfbench module counts as an importer): such a package is
// maintained and tested but reaches no program.
func TestNoDeadInternalPackages(t *testing.T) {
	importers := map[string]map[string]bool{} // import path -> importing dirs
	internal := map[string]bool{}             // packages under internal/
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			internal["presp/"+dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if p != "presp/"+dir {
				if importers[p] == nil {
					importers[p] = map[string]bool{}
				}
				importers[p][dir] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("no internal packages found")
	}
	for pkg := range internal {
		if len(importers[pkg]) == 0 && !testOnlyPackages[pkg] {
			t.Errorf("%s: no non-test file outside the package imports it", pkg)
		}
	}
}

// interfaceMethods are method names a program reaches through a
// standard-library interface (fmt, errors, sort, container/heap,
// encoding/json, net/http) rather than by name, plus the entry points
// the runtime calls.
var interfaceMethods = map[string]bool{
	"main": true, "init": true,
	"Error": true, "String": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestNoUnreferencedFunctions fails when a function or method declared
// in a non-test file under internal/ or cmd/ has its name used nowhere
// outside its own declaration, in any Go file of the repository (tests,
// examples and the perfbench module count as users). Uses inside the
// function's own body, such as recursion, do not count. The match is by
// name, so it can miss a dead method that shares its name with a live
// one, but it never flags a name that appears anywhere else.
func TestNoUnreferencedFunctions(t *testing.T) {
	type decl struct {
		name     string
		pos, end token.Pos
	}
	var decls []decl
	uses := map[string][]token.Pos{} // identifier -> positions, declaring names excluded
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		production := !strings.HasSuffix(path, "_test.go") &&
			(strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "cmd/"))
		names := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fd.Name] = true
			if production && !interfaceMethods[fd.Name.Name] {
				decls = append(decls, decl{fd.Name.Name, fd.Pos(), fd.End()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no production functions found")
	}
	for _, d := range decls {
		used := false
		for _, p := range uses[d.name] {
			if p < d.pos || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			t.Errorf("%s: %s is declared but never referenced", fset.Position(d.pos), d.name)
		}
	}
}
