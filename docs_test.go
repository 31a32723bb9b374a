package fannr_test

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

// The hand-written documents whose inline code is held to the code.
// ROADMAP.md and CHANGES.md are history and may name what is gone;
// bench/ documents itself.
var lintedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	fence      = regexp.MustCompile("(?s)```.*?```")
	inlineCode = regexp.MustCompile("`[^`]+`")
	// pkg.Name or pkg.Type.Member; a lowercase name after the package is
	// a metric (core.gphi_evals), not an identifier.
	dotted   = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
)

// goIndex is what the docs may name: per package (the root one is
// fannr), its top-level identifiers and each type's methods and fields;
// and every test, benchmark and fuzz target anywhere in the repository.
type goIndex struct {
	decls   map[string]map[string]bool
	members map[string]map[string]bool // "pkg.Type" → methods and fields
	tests   map[string]bool
}

func indexRepo(t *testing.T, root string) *goIndex {
	t.Helper()
	idx := &goIndex{decls: map[string]map[string]bool{}, members: map[string]map[string]bool{}, tests: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if filepath.Dir(path) == filepath.Clean(root) {
			pkg = "fannr"
		}
		idx.file(pkg, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func (idx *goIndex) add(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
}

func (idx *goIndex) file(pkg string, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv == nil {
				idx.add(idx.decls, pkg, name)
				if testName.FindString(name) == name {
					idx.tests[name] = true
				}
				continue
			}
			typ := d.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if gen, ok := typ.(*ast.IndexExpr); ok {
				typ = gen.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				idx.add(idx.members, pkg+"."+id.Name, name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					idx.add(idx.decls, pkg, s.Name.Name)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								idx.add(idx.members, pkg+"."+s.Name.Name, n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						idx.add(idx.decls, pkg, n.Name)
					}
				}
			}
		}
	}
}

// stale returns every name in the inline code of doc — fenced blocks
// are shell sessions and are not read — that does not resolve: a dotted
// name on a repository package that package does not declare, or a
// test, benchmark or fuzz target no test file defines.
func (idx *goIndex) stale(doc string) []string {
	var out []string
	for _, span := range inlineCode.FindAllString(fence.ReplaceAllString(doc, ""), -1) {
		for _, m := range dotted.FindAllStringSubmatch(span, -1) {
			pkg, name, member := m[1], m[2], m[3]
			decls, ok := idx.decls[pkg]
			switch {
			case !ok:
			case !decls[name]:
				out = append(out, pkg+"."+name)
			case member != "" && idx.members[pkg+"."+name] != nil && !idx.members[pkg+"."+name][member]:
				out = append(out, pkg+"."+name+"."+member)
			}
		}
		for _, name := range testName.FindAllString(span, -1) {
			if !idx.tests[name] {
				out = append(out, name)
			}
		}
	}
	return out
}

// TestDocsNameRealCode holds the inline code of the hand-written
// documents to the code (make docs-lint): every dotted Go name on a
// repository package and every test, benchmark or fuzz target they name
// must exist.
func TestDocsNameRealCode(t *testing.T) {
	idx := indexRepo(t, ".")
	for _, doc := range lintedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range idx.stale(string(b)) {
			t.Errorf("%s: `%s` names nothing in the code", doc, name)
		}
	}
}

// TestDocsLintCatchesStaleNames plants names in a document and shows
// which the lint reports.
func TestDocsLintCatchesStaleNames(t *testing.T) {
	idx := indexRepo(t, ".")
	for _, tc := range []struct {
		doc  string
		want []string
	}{
		{"`core.GPhi`, `sp.Dijkstra.Step` and `TestDocsNameRealCode`", nil},
		{"a stale `core.KnownAlgo` beside `core.CheckAlgo`", []string{"core.KnownAlgo"}},
		{"`sp.Dijkstra.Path`, gone with the parent array", []string{"sp.Dijkstra.Path"}},
		{"`go test -bench 'BenchmarkFig5a' .`", []string{"BenchmarkFig5a"}},
		{"a metric, `core.gphi_evals_per_query`, and a foreign `http.Nope`", nil},
		{"```\n`core.Nope` in a shell session\n```", nil},
	} {
		if got := idx.stale(tc.doc); strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%q: stale %q, want %q", tc.doc, got, tc.want)
		}
	}
}
