package fannr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed names the declarations no program code reaches that
// stay anyway, each with its reason. A key is a declaration
// ("gtree.Tree.Save", "cmd/fannr.usage": the import path without
// "fannr/internal/", then the name) or a whole package ("difftest").
var unreachedAllowed = map[string]string{
	"difftest":                "test support: the differential harness other packages' tests drive",
	"server.Server.AddEngine": "the seam tests use to inject fake and chaos engines into a running server",
	"shard.codecError.Is":     "errors.Is calls it through an interface the standard library does not export",
	"binio.mmapSupported":     "platform constant: true under unix, false elsewhere, read by the mapping tests",
	"core.SetUntracked":       "the zero value of SetState: a result whose sets were never looked up",
	"graph.SplitEdge":         "the paper's §II-A convention that a point on an edge is a node; tests check it",
	"obs.ParseExposition":     "the exposition parser other packages' tests import to scrape /metrics",
	"obs.ParseExemplars":      "the exposition parser other packages' tests import to scrape /metrics",
	"obs.Scrape.Value":        "the exposition parser other packages' tests import to scrape /metrics",
	"resil.NewInjector":       "test support: the GPhi fault injector the chaos tests wrap engines in",
	"resil.Injector.Arm":      "test support: the GPhi fault injector the chaos tests wrap engines in",
	"resil.Injector.Disarm":   "test support: the GPhi fault injector the chaos tests wrap engines in",
	"resil.Injector.Wrap":     "test support: the GPhi fault injector the chaos tests wrap engines in",
	"resil.TornWrite":         "test support: a file corrupter the index-fault tests use",
	"resil.TruncateTail":      "test support: a file corrupter the index-fault tests use",
	"resil.ChaosCorpus":       "test support: a file corrupter the index-fault tests use",
	"resil.TransientErrors":   "test support: the failing load gate the retry tests use",
}

// TestReachable fails on every package-level func, type, var and const,
// and every method, of the module outside bench/ that no program code
// reaches: code that is not run is code that is not tested as run. The
// programs are the module's packages, cmd/, examples/ and bench/; tests
// are not. A method is reached when it is named, or when its receiver
// type implements an interface that has it: a named or literal interface
// anywhere in the programs, or one a standard package they import
// declares. A use inside the declaration itself (or, for a type, inside
// its methods) does not count. The fannr facade's exports, main, init
// and _ are exempt; unreachedAllowed holds the rest that stay, and an
// entry there that is reached, or names nothing, fails too.
func TestReachable(t *testing.T) {
	u := loadUniverse(t)
	unreached := u.unreached()
	var fails []string
	for _, d := range unreached {
		if !allowed(d.key) {
			fails = append(fails, d.key)
		}
	}
	for key := range unreachedAllowed {
		if !stillUnreached(key, unreached) {
			fails = append(fails, key)
		}
	}
	if len(fails) == 0 {
		return
	}
	testUse := u.testUses(t)
	sort.Strings(fails)
	for _, key := range fails {
		d := u.byKey[key]
		switch {
		case allowed(key):
			t.Errorf("%s: allowlisted, but reached or gone", key)
		case testUse[d.obj.Pos()]:
			t.Errorf("%s: only tests reach %s", u.fset.Position(d.obj.Pos()), key)
		default:
			t.Errorf("%s: nothing references %s", u.fset.Position(d.obj.Pos()), key)
		}
	}
}

func allowed(key string) bool {
	_, decl := unreachedAllowed[key]
	_, pkg := unreachedAllowed[key[:strings.IndexByte(key, '.')]]
	return decl || pkg
}

// stillUnreached says whether an allowlist key names a declaration, or a
// package with a declaration, that is still unreached.
func stillUnreached(key string, unreached []*decl) bool {
	for _, d := range unreached {
		if d.key == key || !strings.Contains(key, ".") && strings.HasPrefix(d.key, key+".") {
			return true
		}
	}
	return false
}

// listed is one package as `go list -json` reports it, with its parsed
// non-test files once loaded.
type listed struct {
	ImportPath, Dir, Export            string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	files                              []*ast.File
}

// decl is a declaration the gate checks, with the source it may refer to
// itself from: its own declaration and, for a type, its methods.
type decl struct {
	key   string
	obj   types.Object
	spans [][2]token.Pos
}

func (d *decl) self(p token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= p && p < s[1] {
			return true
		}
	}
	return false
}

// universe is the module, cmd/, examples/ and bench/ type-checked as one
// program, with the declarations the gate checks.
type universe struct {
	fset  *token.FileSet
	imp   *moduleImporter
	mods  []*listed // module packages, dependencies first
	pkgs  []*types.Package
	infos []*types.Info
	decls map[types.Object]*decl
	byKey map[string]*decl
}

// moduleImporter hands out the module packages type-checked from source,
// so a type is one type across packages, and reads standard packages from
// the compiler's export data.
type moduleImporter struct {
	gc     types.Importer
	loaded map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.loaded[path]; ok {
		return p, nil
	}
	return m.gc.Import(path)
}

func loadUniverse(t *testing.T) *universe {
	t.Helper()
	bench, err := build.ImportDir("bench", 0)
	if err != nil {
		t.Fatal(err)
	}
	// bench/ is a module of its own: list the standard packages it
	// imports beside ./... so their export data is built too.
	args := []string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles", "./..."}
	for _, p := range bench.Imports {
		if p != "fannr" && !strings.HasPrefix(p, "fannr/") {
			args = append(args, p)
		}
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	u := &universe{fset: token.NewFileSet(), decls: map[types.Object]*decl{}, byKey: map[string]*decl{}}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			u.mods = append(u.mods, p)
		}
	}
	u.imp = &moduleImporter{loaded: map[string]*types.Package{}, gc: importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})}
	for _, p := range u.mods {
		p.files = u.parse(t, p.Dir, p.GoFiles)
		pkg, info := u.check(t, p.ImportPath, p.files)
		u.imp.loaded[p.ImportPath] = pkg
		u.declare(p.ImportPath, p.files, info)
	}
	u.check(t, "fannr/bench", u.parse(t, bench.Dir, bench.GoFiles))
	return u
}

func (u *universe) parse(t *testing.T, dir string, names []string) []*ast.File {
	t.Helper()
	files := make([]*ast.File, len(names))
	for i, n := range names {
		f, err := parser.ParseFile(u.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

func (u *universe) check(t *testing.T, path string, files []*ast.File) (*types.Package, *types.Info) {
	t.Helper()
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: u.imp}).Check(path, u.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	u.pkgs, u.infos = append(u.pkgs, pkg), append(u.infos, info)
	return pkg, info
}

// declare records the package's declarations the gate checks.
func (u *universe) declare(path string, files []*ast.File, info *types.Info) {
	short := strings.TrimPrefix(strings.TrimPrefix(path, "fannr/internal/"), "fannr/")
	add := func(key string, id *ast.Ident, span ast.Node) {
		if id.Name == "_" || id.Name == "init" || id.Name == "main" {
			return
		}
		d := &decl{key: short + "." + key, obj: info.Defs[id], spans: [][2]token.Pos{{span.Pos(), span.End()}}}
		u.decls[d.obj], u.byKey[d.key] = d, d
	}
	var methods []*ast.FuncDecl
	for _, f := range files {
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if dd.Recv != nil {
					methods = append(methods, dd)
				} else if path != "fannr" || !dd.Name.IsExported() {
					add(dd.Name.Name, dd.Name, dd)
				}
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if path != "fannr" || !s.Name.IsExported() {
							add(s.Name.Name, s.Name, s)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if path != "fannr" || !n.IsExported() {
								add(n.Name, n, s)
							}
						}
					}
				}
			}
		}
	}
	// Methods last, so a type's own entry exists to take their spans.
	for _, m := range methods {
		recv := info.Defs[m.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named := recv.(*types.Named).Obj()
		if typ := u.decls[named]; typ != nil {
			typ.spans = append(typ.spans, [2]token.Pos{m.Pos(), m.End()})
		}
		if path != "fannr" || !named.Exported() || !m.Name.IsExported() {
			add(named.Name()+"."+m.Name.Name, m.Name, m)
		}
	}
}

// origin is the declared object behind a use: the generic method or
// field an instantiated one stands for.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unreached marks what the programs name and what their interfaces
// call, then returns the rest, sorted by key.
func (u *universe) unreached() []*decl {
	reached := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	var named []*types.Named
	for _, info := range u.infos {
		for id, obj := range info.Uses {
			if d := u.decls[origin(obj)]; d != nil && !d.self(id.Pos()) {
				reached[d.obj] = true
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces[it] = true
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	std := map[*types.Package]bool{}
	for _, pkg := range u.pkgs {
		for _, imp := range pkg.Imports() {
			if _, mod := u.imp.loaded[imp.Path()]; !mod && !std[imp] {
				std[imp] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						if it, ok := tn.Type().Underlying().(*types.Interface); ok {
							ifaces[it] = true
						}
					}
				}
			}
		}
	}
	for _, n := range named {
		for _, T := range []types.Type{n, types.NewPointer(n)} {
			for it := range ifaces {
				if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(T, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(T, true, m.Pkg(), m.Name()); obj != nil {
						reached[origin(obj)] = true
					}
				}
			}
		}
	}
	var out []*decl
	for obj, d := range u.decls {
		if !reached[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// testUses type-checks each package again with its tests and returns the
// positions of the declarations the test files name. It runs only to say
// which list a failure is on, so what fails to type-check is skipped.
func (u *universe) testUses(t *testing.T) map[token.Pos]bool {
	used := map[token.Pos]bool{}
	check := func(path string, files, tests []*ast.File) *types.Package {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, _ := (&types.Config{Importer: u.imp, Error: func(error) {}}).Check(path, u.fset, append(files, tests...), info)
		for _, f := range tests {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					used[info.Uses[id].Pos()] = true
				}
				return true
			})
		}
		return pkg
	}
	for _, p := range u.mods {
		if len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue
		}
		// The external tests see the package with its in-package tests
		// (export_test.go hooks).
		withTests := check(p.ImportPath, append([]*ast.File(nil), p.files...), u.parse(t, p.Dir, p.TestGoFiles))
		if len(p.XTestGoFiles) > 0 {
			plain := u.imp.loaded[p.ImportPath]
			u.imp.loaded[p.ImportPath] = withTests
			check(p.ImportPath+"_test", nil, u.parse(t, p.Dir, p.XTestGoFiles))
			u.imp.loaded[p.ImportPath] = plain
		}
	}
	return used
}
