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
	"sort"
	"strings"
	"testing"

	"themis/internal/race"
)

// reachAllowed lists the internal identifiers kept without a non-test
// caller, each with the reason it stays.
var reachAllowed = map[string]string{
	"themis/internal/race.Enabled":               "test support by design: the allocation tests skip themselves under -race",
	"themis/internal/placement.Satisfies":        "the reference check of a draw's constraint that placement, sim, core and pack tests compare against",
	"themis/internal/rpc.AgentClient.ProbeRho":   "the public daemon.AgentClient's API, which daemon's tests drive",
	"themis/internal/rpc.AgentClient.RequestBid": "the public daemon.AgentClient's API, which daemon's tests drive",
}

// TestInternalCodeHasCallers fails, naming the identifier, when a
// package-level func, method, type, var or const under internal/ has no use
// in the non-test code of the module or of the bench module. Delete such code,
// move it into a _test.go file, or give it a reason in reachAllowed.
func TestInternalCodeHasCallers(t *testing.T) {
	if race.Enabled {
		t.Skip("static analysis: the non-race run checks the same source")
	}
	dead, err := unreached([]reachRoot{{".", "themis"}, {"bench", "themis/bench"}}, "themis/internal/")
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, d := range dead {
		found[d.name] = true
		if _, ok := reachAllowed[d.name]; !ok {
			t.Errorf("%s: %s has no non-test caller", d.pos, d.name)
		}
	}
	for name := range reachAllowed {
		if !found[name] {
			t.Errorf("reachAllowed lists %s, which is gone or now has a caller", name)
		}
	}
}

// TestReachCheckFlagsFixture runs the check on testdata/reach: a module whose
// internal package holds one dead exported function and one dead unexported
// helper beside live code of every kind the check must not flag, and a second
// tree that stands in for the bench module.
func TestReachCheckFlagsFixture(t *testing.T) {
	dead, err := unreached([]reachRoot{
		{"testdata/reach/mod", "fixture"},
		{"testdata/reach/bench", "fixture/bench"},
	}, "fixture/internal/")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{"fixture/internal/lib.Unused", "fixture/internal/lib.helper"}
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

// unreached type-checks every non-test file under roots and returns, sorted,
// the package-level identifiers of packages whose import path starts with
// scope that nothing outside their own declaration uses.
func unreached(roots []reachRoot, scope string) ([]deadIdent, error) {
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
						if obj := origin(rp.info.Uses[n]); obj != nil && !self[obj] {
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
			} else if inUniverse && strings.HasPrefix(pkg.Path(), scope) {
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
		if !used[obj] {
			dead = append(dead, deadIdent{name, l.fset.Position(obj.Pos())})
		}
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, scope) {
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
	return dead, nil
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
