package presp_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestAPISurfaceGolden pins the exported API of the facade (package
// presp) and the flow engine (internal/flow) against a golden listing.
// The ctx-first migration removed every non-ctx Deprecated wrapper; this
// test makes their absence — and any future surface change — an explicit
// diff, not an accident. Regenerate with:
//
//	go test . -run TestAPISurfaceGolden -update
func TestAPISurfaceGolden(t *testing.T) {
	var b strings.Builder
	for _, pkg := range []struct{ label, dir string }{
		{"presp", "."},
		{"flow", "internal/flow"},
	} {
		decls, err := exportedDecls(pkg.dir)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# package %s\n", pkg.label)
		for _, d := range decls {
			fmt.Fprintln(&b, d)
		}
	}
	got := b.String()
	if strings.Contains(got, "Context(") {
		t.Errorf("API surface still exports a *Context wrapper:\n%s", got)
	}

	golden := filepath.Join("testdata", "api_surface.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("API surface drifted from %s (regenerate with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// exportedDecls parses one package directory (non-test files only) and
// returns a sorted listing of its exported functions, methods and type
// declarations: "func Name", "method (Recv) Name", "type Name".
func exportedDecls(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						out = append(out, "func "+d.Name.Name)
						continue
					}
					recv := recvTypeName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					out = append(out, fmt.Sprintf("method (%s) %s", recv, d.Name.Name))
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						if ts.Name.IsExported() {
							out = append(out, "type "+ts.Name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// recvTypeName unwraps *T / T / generic receivers to the base name.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
