package themis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTest matches a test, fuzz target or benchmark name as DESIGN.md cites
// one: the prefix followed by an upper-case letter, a digit or an underscore,
// so words like "Testbed" are not names.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)

// TestDesignCitesDefinedTests keeps DESIGN.md's citations true: every
// Test…, Fuzz… or Benchmark… name it mentions must be a top-level function
// of some _test.go file in the repository.
func TestDesignCitesDefinedTests(t *testing.T) {
	defined := make(map[string]bool)
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
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				defined[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := citedTest.FindAllString(string(design), -1)
	if len(cited) == 0 {
		t.Fatal("DESIGN.md cites no tests; the pattern is broken")
	}
	seen := make(map[string]bool)
	for _, name := range cited {
		if !defined[name] && !seen[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go file defines", name)
		}
		seen[name] = true
	}
}
