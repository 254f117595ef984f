package presp_test

import (
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
