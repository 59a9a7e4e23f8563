package themis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"themis/internal/race"
)

// reachAllowed lists the internal identifiers kept without a non-test
// caller, each with the reason it stays.
var reachAllowed = map[string]string{
	"themis/internal/race.Enabled":        "test support by design: the allocation tests skip themselves under -race",
	"themis/internal/placement.Satisfies": "the reference check of a draw's constraint that placement, sim, core and pack tests compare against",
}

// TestInternalCodeHasCallers fails, naming the identifier, when a
// package-level func, method, type, var or const under internal/ has no use
// in the non-test code of the module or of the bench module. Delete such code,
// move it into a _test.go file, or give it a reason in reachAllowed.
func TestInternalCodeHasCallers(t *testing.T) {
	if race.Enabled {
		t.Skip("static analysis: the non-race run checks the same source")
	}
	u, err := moduleUniverse()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, u.unreached(internalScope("themis/internal/"), false), reachAllowed)
}

// publicAllowed lists the exported funcs, methods and vars of the public
// packages kept without a caller outside their own package, each with the
// reason it stays.
var publicAllowed = map[string]string{
	"themis.WithFailures": "the only program path into the simulator's machine-failure injection, which ROADMAP item 3a's fault replay builds on",
}

// TestPublicCodeHasCallers fails, naming the identifier, when an exported
// func, method or var of a public package (themis, themis/daemon,
// themis/experiments) is named by no non-test code outside its own package:
// cmd/, examples/, bench/ or another public package. Type aliases and
// constants are out of scope. Delete such code, fold it into its one caller,
// unexport it, or give it a reason in publicAllowed.
func TestPublicCodeHasCallers(t *testing.T) {
	if race.Enabled {
		t.Skip("static analysis: the non-race run checks the same source")
	}
	u, err := moduleUniverse()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, u.unreached(publicScope("themis", "themis/daemon", "themis/experiments"), true), publicAllowed)
}

// moduleUniverse type-checks, once for both checks, the trees whose non-test
// code counts as a caller: the module itself and the bench module.
var moduleUniverse = sync.OnceValues(func() (*reachUniverse, error) {
	return loadUniverse([]reachRoot{{".", "themis"}, {"bench", "themis/bench"}})
})

// internalScope selects every package under prefix.
func internalScope(prefix string) func(string) bool {
	return func(p string) bool { return strings.HasPrefix(p, prefix) }
}

// publicScope selects exactly the named packages.
func publicScope(paths ...string) func(string) bool {
	return func(p string) bool { return slices.Contains(paths, p) }
}

// checkAllowed fails for every flagged identifier allowed does not list, and
// for every listed one that is no longer flagged.
func checkAllowed(t *testing.T, dead []deadIdent, allowed map[string]string) {
	t.Helper()
	found := make(map[string]bool)
	for _, d := range dead {
		found[d.name] = true
		if _, ok := allowed[d.name]; !ok {
			t.Errorf("%s: %s has no non-test caller", d.pos, d.name)
		}
	}
	for name := range allowed {
		if !found[name] {
			t.Errorf("%s is allow-listed, but it is gone or now has a caller", name)
		}
	}
}

// TestReachCheckFlagsFixture runs the check on testdata/reach: a module whose
// internal package holds one dead exported function and one dead unexported
// helper beside live code of every kind the check must not flag, and a second
// tree that stands in for the bench module.
func TestReachCheckFlagsFixture(t *testing.T) {
	checkFixture(t, internalScope("fixture/internal/"), false,
		"fixture/internal/lib.Unused", "fixture/internal/lib.helper")
}

// TestPublicReachCheckFlagsFixture runs the public check on testdata/reach:
// its public package holds an exported function only its own package calls
// beside one the fixture's command calls, an alias and a constant.
func TestPublicReachCheckFlagsFixture(t *testing.T) {
	checkFixture(t, publicScope("fixture/pub"), true, "fixture/pub.Box.Twice", "fixture/pub.SelfOnly")
}

// checkFixture asserts the exact list the check flags on testdata/reach.
func checkFixture(t *testing.T, inScope func(string) bool, public bool, want ...string) {
	t.Helper()
	u, err := loadUniverse([]reachRoot{
		{"testdata/reach/mod", "fixture"},
		{"testdata/reach/bench", "fixture/bench"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range u.unreached(inScope, public) {
		got = append(got, d.name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// reachRoot is one source tree of the check: a directory and the import path
// it stands for. Subdirectories that hold their own go.mod, testdata or a
// leading dot are not part of it.
type reachRoot struct{ dir, path string }

// deadIdent is one identifier the check flags.
type deadIdent struct {
	name string // import path, then receiver type for a method, then name
	pos  token.Position
}

// reachPkg is one parsed, then type-checked, package of the universe.
type reachPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
	busy  bool
}

// reachLoader type-checks the roots' packages from source on demand and
// everything else, the standard library, through the source importer.
type reachLoader struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (l *reachLoader) Import(p string) (*types.Package, error) {
	rp, ok := l.pkgs[p]
	if !ok {
		return l.std.Import(p)
	}
	if rp.busy {
		return nil, fmt.Errorf("import cycle through %s", p)
	}
	if rp.pkg == nil && rp.err == nil {
		rp.busy = true
		rp.info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: l}
		rp.pkg, rp.err = conf.Check(p, l.fset, rp.files, rp.info)
		rp.busy = false
	}
	return rp.pkg, rp.err
}

// reachUniverse is every package of the roots, type-checked, with its
// import paths sorted.
type reachUniverse struct {
	l     *reachLoader
	paths []string
}

// loadUniverse type-checks every non-test file under roots.
func loadUniverse(roots []reachRoot) (*reachUniverse, error) {
	l := &reachLoader{fset: token.NewFileSet(), pkgs: make(map[string]*reachPkg)}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, r := range roots {
		if err := l.parseRoot(r); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return &reachUniverse{l, paths}, nil
}

// unreached returns, sorted, the package-level identifiers of the packages
// inScope selects that nothing outside their own declaration uses. With
// public set, only exported funcs, methods and vars are checked, and only a
// use from another package counts.
func (u *reachUniverse) unreached(inScope func(string) bool, public bool) []deadIdent {
	l, paths := u.l, u.paths
	used := make(map[types.Object]bool)
	var asserted []*types.Interface
	for _, p := range paths {
		rp := l.pkgs[p]
		for _, f := range rp.files {
			for _, decl := range f.Decls {
				self := declared(decl, rp.info)
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if obj := origin(rp.info.Uses[n]); obj != nil && !self[obj] && !(public && obj.Pkg() == rp.pkg) {
							used[obj] = true
						}
					case *ast.TypeAssertExpr:
						asserted = appendIface(asserted, rp.info, n.Type)
					case *ast.TypeSwitchStmt:
						for _, s := range n.Body.List {
							for _, e := range s.(*ast.CaseClause).List {
								asserted = appendIface(asserted, rp.info, e)
							}
						}
					}
					return true
				})
			}
		}
	}

	// An interface method is used when it is called, when the standard
	// library declares it (error, fmt.Stringer, heap.Interface, …: its own
	// code calls them), or when a type assertion targets its interface, as
	// one does a marker interface. A concrete method is used when it
	// implements a used interface method.
	for _, iface := range asserted {
		for i := 0; i < iface.NumMethods(); i++ {
			used[iface.Method(i)] = true
		}
	}
	var ifaces []*types.Interface
	var concrete []*types.Named
	seen := make(map[*types.Package]bool)
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		_, inUniverse := l.pkgs[pkg.Path()]
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if !iface.IsMethodSet() {
					continue
				}
				ifaces = append(ifaces, iface)
				if !inUniverse {
					for i := 0; i < iface.NumMethods(); i++ {
						used[iface.Method(i)] = true
					}
				}
			} else if inUniverse && inScope(pkg.Path()) {
				concrete = append(concrete, named)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range paths {
		walk(l.pkgs[p].pkg)
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces = append(append(ifaces, errIface), asserted...)
	used[errIface.Method(0)] = true
	for _, iface := range ifaces {
		for _, named := range concrete {
			var impl types.Type
			switch {
			case types.Implements(named, iface):
				impl = named
			case types.Implements(types.NewPointer(named), iface):
				impl = types.NewPointer(named)
			default:
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if !used[m] {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(impl, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	var dead []deadIdent
	flag := func(obj types.Object, name string) {
		if public {
			switch obj.(type) {
			case *types.Func, *types.Var:
			default:
				return
			}
			if !obj.Exported() {
				return
			}
		}
		if !used[obj] {
			dead = append(dead, deadIdent{name, l.fset.Position(obj.Pos())})
		}
	}
	for _, p := range paths {
		if !inScope(p) {
			continue
		}
		scopeObjs := l.pkgs[p].pkg.Scope()
		for _, name := range scopeObjs.Names() {
			obj := scopeObjs.Lookup(name)
			if name == "init" || name == "main" || name == "_" {
				continue
			}
			flag(obj, p+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					flag(m, p+"."+name+"."+m.Name())
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				flag(m, p+"."+name+"."+m.Name())
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
}

// parseRoot parses the non-test files that the default build context
// selects, package by package, under one root.
func (l *reachLoader) parseRoot(r reachRoot) error {
	return filepath.WalkDir(r.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != r.dir {
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		rp := &reachPkg{}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(p, name); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rp.files = append(rp.files, f)
		}
		if len(rp.files) > 0 {
			rel, err := filepath.Rel(r.dir, p)
			if err != nil {
				return err
			}
			l.pkgs[path.Join(r.path, filepath.ToSlash(rel))] = rp
		}
		return nil
	})
}

// declared returns the package-level objects decl declares, with the receiver
// type of a method: uses inside their own declaration do not make them live.
func declared(decl ast.Decl, info *types.Info) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			if tn := recvTypeName(d.Recv.List[0].Type, info); tn != nil {
				self[tn] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
			}
		}
	}
	return self
}

// recvTypeName resolves a method receiver's base type name.
func recvTypeName(e ast.Expr, info *types.Info) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// appendIface appends the interface that e denotes as a type, if it is one.
func appendIface(ifaces []*types.Interface, info *types.Info, e ast.Expr) []*types.Interface {
	if e == nil {
		return ifaces
	}
	if tv, ok := info.Types[e]; ok && tv.IsType() {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			ifaces = append(ifaces, iface)
		}
	}
	return ifaces
}
