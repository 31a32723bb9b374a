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
	"core.SetUntracked":       "the zero value of SetSight: a result whose sets were never looked up",
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
// are not. A method is reached when it is named, or when a value of its
// receiver type can be in an interface that has the method (see
// unreached). A use inside the declaration itself (or, for a type,
// inside its methods) does not count. The fannr facade's exports, main,
// init and _ are exempt; unreachedAllowed holds the rest that stay, and an
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
	files [][]*ast.File // per package, as infos
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
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Instances: map[*ast.Ident]types.Instance{}}
	pkg, err := (&types.Config{Importer: u.imp}).Check(path, u.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	u.pkgs, u.infos, u.files = append(u.pkgs, pkg), append(u.infos, info), append(u.files, files)
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
//
// An interface call reaches a method only on a type whose values can be
// in that interface. The flow is tracked by static interface type: a
// value of a concrete type converted to an interface puts the type in
// it; an interface value converted to, or asserted to, another interface
// carries its types along. A method is reached when a type that is in an
// interface with the method supplies it, or when a type that is in any
// interface implements a standard library interface with the method
// (the library's own assertions, such as fmt's to Stringer, are not in
// the programs' source).
func (u *universe) unreached() []*decl {
	reached := map[types.Object]bool{}
	f := newFlow()
	for i, info := range u.infos {
		conversions(info, u.files[i], f.convert)
		for id, obj := range info.Uses {
			if d := u.decls[origin(obj)]; d != nil && !d.self(id.Pos()) {
				reached[d.obj] = true
			}
		}
	}
	std := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, pkg := range u.pkgs {
		for _, imp := range pkg.Imports() {
			if _, mod := u.imp.loaded[imp.Path()]; !mod && !seen[imp] {
				seen[imp] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						if it, ok := tn.Type().Underlying().(*types.Interface); ok {
							std = append(std, it)
						}
					}
				}
			}
		}
	}
	supply := func(T types.Type, it *types.Interface) {
		if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(T, it) {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(T, true, m.Pkg(), m.Name()); obj != nil {
				reached[origin(obj)] = true
			}
		}
	}
	converted := map[string]types.Type{}
	for key, held := range f.settle() {
		for k, T := range held {
			supply(T, f.iface[key])
			converted[k] = T
		}
	}
	for _, T := range converted {
		for _, it := range std {
			supply(T, it)
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

// flow is which concrete types each interface type can hold. Types are
// keyed by their string, so two spellings of one literal interface are
// one node.
type flow struct {
	iface map[string]*types.Interface
	holds map[string]map[string]types.Type // interface → concrete types put in it
	edges map[string]map[string]bool       // interface → interfaces its values move to
}

func newFlow() *flow {
	return &flow{iface: map[string]*types.Interface{}, holds: map[string]map[string]types.Type{}, edges: map[string]map[string]bool{}}
}

// node returns t's key when t is an interface (a type parameter stands
// for its constraint).
func (f *flow) node(t types.Type) (string, bool) {
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return "", false
	}
	key := types.TypeString(t, nil)
	f.iface[key] = it
	return key, true
}

// convert records that a value of type from becomes, or is asserted to,
// a value of type to; a pair whose to is not an interface, or whose type
// is unknown, says nothing.
func (f *flow) convert(from, to types.Type) {
	if from == nil || to == nil {
		return
	}
	dst, ok := f.node(to)
	if !ok {
		return
	}
	if src, ok := f.node(from); ok {
		if f.edges[src] == nil {
			f.edges[src] = map[string]bool{}
		}
		f.edges[src][dst] = true
		return
	}
	f.hold(dst, types.TypeString(from, nil), from)
}

// hold puts T, keyed k, in interface dst and reports whether it was not
// there yet.
func (f *flow) hold(dst, k string, T types.Type) bool {
	if _, ok := f.holds[dst][k]; ok {
		return false
	}
	if f.holds[dst] == nil {
		f.holds[dst] = map[string]types.Type{}
	}
	f.holds[dst][k] = T
	return true
}

// settle carries every interface's types along its edges until nothing
// moves, and returns what each interface holds. A type moves only to an
// interface it implements: an assertion to any other fails.
func (f *flow) settle() map[string]map[string]types.Type {
	for moved := true; moved; {
		moved = false
		for src, dsts := range f.edges {
			for dst := range dsts {
				for k, T := range f.holds[src] {
					if types.Implements(T, f.iface[dst]) && f.hold(dst, k, T) {
						moved = true
					}
				}
			}
		}
	}
	return f.holds
}

// conversions calls mark(from, to) for every value of type from that
// becomes a value of type to in files: through an assignment, a typed
// var, a call argument (variadic ones included), a return, a
// composite-literal field, element, key or value, a channel send, an
// explicit conversion or a type assertion (errors.As's included; the
// programs have no type switch); and for every type argument of a
// generic instantiation, against its type parameter's constraint.
func conversions(info *types.Info, files []*ast.File, mark func(from, to types.Type)) {
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			tparams = obj.Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			tparams = obj.Type().(*types.Named).TypeParams()
		}
		for i := 0; i < inst.TypeArgs.Len() && tparams != nil; i++ {
			mark(inst.TypeArgs.At(i), tparams.At(i).Constraint())
		}
	}
	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				return obj.Type()
			}
		}
		return nil
	}
	conv := func(to types.Type, e ast.Expr) { mark(typeOf(e), to) }
	// convAll converts values to the types to in order, spreading a
	// single multi-value call across them.
	convAll := func(to []types.Type, values []ast.Expr) {
		if len(values) == 1 && len(to) > 1 {
			if tup, ok := typeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len() && i < len(to); i++ {
					mark(tup.At(i).Type(), to[i])
				}
				return
			}
		}
		for i, v := range values {
			if i < len(to) {
				conv(to[i], v)
			}
		}
	}
	tupleTypes := func(tup *types.Tuple) []types.Type {
		out := make([]types.Type, tup.Len())
		for i := range out {
			out[i] = tup.At(i).Type()
		}
		return out
	}
	returns := func(body *ast.BlockStmt, sig *types.Signature) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its own returns, with its own signature
			case *ast.ReturnStmt:
				convAll(tupleTypes(sig.Results()), n.Results)
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					to := make([]types.Type, len(n.Lhs))
					for i, l := range n.Lhs {
						to[i] = typeOf(l)
					}
					convAll(to, n.Rhs)
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						conv(typeOf(n.Type), v)
					}
				}
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				if tv.IsType() {
					conv(tv.Type, n.Args[0])
					break
				}
				sig, ok := tv.Type.(*types.Signature)
				if !ok {
					break
				}
				to := tupleTypes(sig.Params())
				if sig.Variadic() && !n.Ellipsis.IsValid() {
					last := to[len(to)-1].(*types.Slice).Elem()
					for to = to[:len(to)-1]; len(to) < len(n.Args); {
						to = append(to, last)
					}
				}
				convAll(to, n.Args)
				// errors.As(err, &target) asserts err to target's type.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && len(n.Args) == 2 {
					if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "errors.As" {
						if p, ok := typeOf(n.Args[1]).(*types.Pointer); ok {
							mark(typeOf(n.Args[0]), p.Elem())
						}
					}
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					conv(typeOf(n.Type), n.X)
				}
			case *ast.SendStmt:
				if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
					conv(ch.Elem(), n.Value)
				}
			case *ast.CompositeLit:
				t := typeOf(n)
				if p, ok := t.Underlying().(*types.Pointer); ok { // an elided &T in a nested literal
					t = p.Elem()
				}
				for i, e := range n.Elts {
					kv, keyed := e.(*ast.KeyValueExpr)
					switch u := t.Underlying().(type) {
					case *types.Struct:
						if keyed {
							conv(info.Uses[kv.Key.(*ast.Ident)].Type(), kv.Value)
						} else {
							conv(u.Field(i).Type(), e)
						}
					case *types.Slice:
						if keyed {
							e = kv.Value
						}
						conv(u.Elem(), e)
					case *types.Array:
						if keyed {
							e = kv.Value
						}
						conv(u.Elem(), e)
					case *types.Map:
						conv(u.Key(), kv.Key)
						conv(u.Elem(), kv.Value)
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					returns(n.Body, info.Defs[n.Name].Type().(*types.Signature))
				}
			case *ast.FuncLit:
				returns(n.Body, typeOf(n).(*types.Signature))
			}
			return true
		})
	}
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
