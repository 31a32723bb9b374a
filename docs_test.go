package fannr_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fannr"
	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/obs"
	"fannr/internal/phl"
	"fannr/internal/server"
	"fannr/internal/shard"
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
	// A command-line flag: a dash opening a word of the span.
	flagName = regexp.MustCompile(`(?:^|[\s(\[])-([a-z][\w-]*)`)
	expID    = regexp.MustCompile(`(?:^|\s)-exp[ =](\w+)`)
	// A span that is one exported name, perhaps called: `Verify` or
	// `GD(g, gp, q, k)`. One letter is a set of the paper (P, Q, G).
	bareName = regexp.MustCompile(`^([A-Z]\w+)(?:\(.*\))?$`)
	// A metric family, a set of them or a prefix: `fannr_cache_bytes`,
	// `fannr_sets_{hits,fills}_total`, `fannr_pool_*`. Labels after the
	// name (`fannr_index_bytes{index,mem}`) are not part of it: labelKey
	// reads their keys.
	metricName = regexp.MustCompile(`fannr(?:_(?:[a-z0-9]+|\{[a-z0-9_,\s]+\}|\*))+`)
	// The key of each label in a block right after a family's name:
	// `{index,mem}`, `{outcome="error"}`, `{engine=…}`.
	labelBlock = regexp.MustCompile(`^\{[^}]*\}`)
	labelKey   = regexp.MustCompile(`(?:^\{|,)\s*([a-z_]+)`)
	// A benchmark metric: a lower-case name with an underscore after a
	// package-like prefix, perhaps with dotted parts (`core.gphi_dist_us.ine`).
	// A name right after a dot is a path into something else
	// (`indexes.phl.label_entries` in /meta).
	benchName = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([a-z0-9]+_\w*(?:\.[\w-]+)*)`)
	// A citation of a DESIGN section, `DESIGN §9` or `DESIGN.md §17`,
	// perhaps broken over a comment line; and a section heading there.
	designCite    = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|#)+§\s*(\d+)`)
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// goFlags are the go and go test flags the documents pass in their
// commands; every other flag must be one a binary registers.
var goFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "c": true, "count": true, "cpu": true,
	"cpuprofile": true, "fuzz": true, "fuzztime": true, "o": true, "race": true, "run": true,
	"short": true, "timeout": true, "v": true,
}

// goIndex is what the docs may name: per package (the root one is
// fannr), its top-level identifiers and each type's methods and fields;
// every test, benchmark and fuzz target anywhere in the repository; every
// name declared anywhere or spelled as a string by a program (an engine,
// a dataset); the flags the binaries register; and the experiment ids.
// It also holds DESIGN.md's section numbers and the citations of them in
// program comments that name none.
type goIndex struct {
	decls    map[string]map[string]bool
	members  map[string]map[string]bool // "pkg.Type" → methods and fields
	tests    map[string]bool
	names    map[string]bool
	labels   map[string]bool // the keys of obs.L calls in program code
	flags    map[string]bool
	exps     map[string]bool
	metrics  []string        // the families of scrapedFamilies
	bench    []string        // BENCHMARK.json's per_layer and end_to_end names
	sections map[string]bool // the numbers of DESIGN.md's section headings
	goCites  []string        // DESIGN § citations in program comments that head no section
}

func indexRepo(t *testing.T, root string) *goIndex {
	t.Helper()
	idx := &goIndex{
		decls: map[string]map[string]bool{}, members: map[string]map[string]bool{}, tests: map[string]bool{},
		names: map[string]bool{}, labels: map[string]bool{}, flags: map[string]bool{}, exps: map[string]bool{"all": true},
		metrics: scrapedFamilies(t), bench: benchMetrics(t, root), sections: map[string]bool{},
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		idx.sections[m[1]] = true
	}
	for _, id := range fannr.ExperimentIDs() {
		idx.exps[id] = true
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		program := !strings.HasSuffix(path, "_test.go")
		for _, cg := range f.Comments {
			for _, cite := range idx.staleCitations(cg.Text()) {
				if program {
					idx.goCites = append(idx.goCites, fset.Position(cg.Pos()).String()+": "+cite)
				}
			}
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if filepath.Dir(path) == filepath.Clean(root) {
			pkg = "fannr"
		}
		idx.file(pkg, f, program)
		if rel, _ := filepath.Rel(root, path); rel == filepath.Join("bench", "main.go") ||
			filepath.Base(path) == "main.go" && filepath.Dir(filepath.Dir(rel)) == "cmd" {
			idx.registeredFlags(f)
		}
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
	idx.names[name] = true
}

// registeredFlags reads the flags a main package registers: the name is
// the string argument of fs.Int("name", …) or fs.IntVar(&v, "name", …).
func (idx *goIndex) registeredFlags(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg := 0
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Float64", "Duration", "Func":
		case "StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Float64Var", "DurationVar", "Var":
			arg = 1
		default:
			return true
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				idx.flags[name] = true
			}
		}
		return true
	})
}

// file indexes one parsed file; literals says whether its string
// literals and its obs.L label keys count (a program's do, a test's do
// not).
func (idx *goIndex) file(pkg string, f *ast.File, literals bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if !literals {
			return false
		}
		switch n := n.(type) {
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
				idx.names[s] = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "L" && len(n.Args) == 2 {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "obs" {
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						key, _ := strconv.Unquote(lit.Value)
						idx.labels[key] = true
					}
				}
			}
		}
		return true
	})
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

// scrapedFamilies is every metric family named by a # TYPE line in the
// /metrics scrape of a test fannr-server — cache and coalescing on, its
// PHL index loaded from a file — after one /fann and one /dist, or in the
// scrape of a test coordinator over two in-process shards.
func scrapedFamilies(t *testing.T) []string {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 3, Name: "lint"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := labels.Save(&file); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lint.phl")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(g, server.Options{CacheEntries: 64, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.AddReloadable(server.IndexSource{Name: "phl", Path: path,
		Load:    func() (server.ReloadableIndex, error) { return phl.Load(path, phl.LoadOptions{Mmap: true}) },
		Indexes: func(ix server.ReloadableIndex) core.Indexes { return core.Indexes{PHL: ix.(*phl.Index)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, call := range [][2]string{
		{"/fann", `{"p":[1,5,9,200],"q":[10,20,30],"phi":0.5,"engine":"PHL"}`},
		{"/dist", `{"u":3,"v":40}`},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, call[0], strings.NewReader(call[1])))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", call[0], rr.Code, rr.Body)
		}
	}
	scrape := httptest.NewRecorder()
	h.ServeHTTP(scrape, httptest.NewRequest(http.MethodGet, "/metrics", nil))

	tree, err := gtree.Build(g, gtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.NewPlan(g, tree, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	transports := []shard.Transport{shard.InProc{Host: shard.NewHost(0, g, shard.HostOptions{})},
		shard.InProc{Host: shard.NewHost(1, g, shard.HostOptions{})}}
	reg := obs.NewRegistry()
	if _, err := shard.NewCoordinator(plan, transports, shard.CoordinatorOptions{Registry: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.WriteTo(scrape.Body); err != nil {
		t.Fatal(err)
	}

	var families []string
	for lines := bufio.NewScanner(scrape.Body); lines.Scan(); {
		if f := strings.Fields(lines.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	return families
}

// benchMetrics is every per_layer and end_to_end metric name that
// BENCHMARK.json declares.
func benchMetrics(t *testing.T, root string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
		EndToEnd []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range append(decl.PerLayer, decl.EndToEnd...) {
		names = append(names, m.Name)
	}
	return names
}

// benchStale reports whether pkg.name names no benchmark metric although
// pkg prefixes one: it must be a metric or a dot-bounded prefix of one
// (`core.gphi_dist_us` of `core.gphi_dist_us.ine`).
func (idx *goIndex) benchStale(pkg, name string) bool {
	full, prefixed := pkg+"."+name, false
	for _, m := range idx.bench {
		if m == full || strings.HasPrefix(m, full+".") {
			return false
		}
		prefixed = prefixed || strings.HasPrefix(m, pkg+".")
	}
	return prefixed
}

// scraped reports whether a backticked metric name matches a family the
// scrape exposes: every family of a set, and at least one family a
// prefix or a wildcard spans.
func (idx *goIndex) scraped(name string) bool {
	var pattern strings.Builder
	for _, part := range regexp.MustCompile(`\{[^}]*\}|\*|[^{*]+`).FindAllString(name, -1) {
		switch {
		case part == "*":
			pattern.WriteString(`\w*`)
		case part[0] == '{':
			for _, alt := range strings.Split(strings.Trim(part, "{}"), ",") {
				if !idx.scraped(strings.Replace(name, part, strings.TrimSpace(alt), 1)) {
					return false
				}
			}
			return true
		default:
			pattern.WriteString(regexp.QuoteMeta(part))
		}
	}
	re := regexp.MustCompile("^" + pattern.String() + "$")
	for _, family := range idx.metrics {
		if re.MatchString(family) {
			return true
		}
	}
	return false
}

// staleCitations returns every DESIGN § citation in text, prose and
// code alike, whose number heads no section of DESIGN.md.
func (idx *goIndex) staleCitations(text string) []string {
	var out []string
	for _, m := range designCite.FindAllStringSubmatch(text, -1) {
		if !idx.sections[m[1]] {
			out = append(out, "DESIGN §"+m[1])
		}
	}
	return out
}

// stale returns every DESIGN § citation in doc that names no section, and
// every name in its inline code — fenced blocks are shell sessions and
// are not read — that does not resolve: a dotted
// name on a repository package that package does not declare, a test,
// benchmark or fuzz target no test file defines, a flag no binary
// registers (go's own aside), an experiment id exp.Registry lacks, a
// bare exported name that is nowhere declared or spelled, a metric
// family no scrape exposes, a label key after a family that no obs.L call
// gives, or a benchmark metric BENCHMARK.json does not declare.
func (idx *goIndex) stale(doc string) []string {
	out := idx.staleCitations(doc)
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
		code := strings.Trim(span, "`")
		for _, m := range flagName.FindAllStringSubmatch(code, -1) {
			if !idx.flags[m[1]] && !goFlags[m[1]] {
				out = append(out, "-"+m[1])
			}
		}
		for _, m := range expID.FindAllStringSubmatch(code, -1) {
			if !idx.exps[m[1]] {
				out = append(out, "-exp "+m[1])
			}
		}
		if m := bareName.FindStringSubmatch(code); m != nil && !idx.names[m[1]] {
			out = append(out, m[1])
		}
		for _, loc := range metricName.FindAllStringIndex(code, -1) {
			name := code[loc[0]:loc[1]]
			if !idx.scraped(name) {
				out = append(out, name)
			}
			for _, m := range labelKey.FindAllStringSubmatch(labelBlock.FindString(code[loc[1]:]), -1) {
				if !idx.labels[m[1]] {
					out = append(out, name+"{"+m[1]+"}")
				}
			}
		}
		for _, m := range benchName.FindAllStringSubmatch(code, -1) {
			if idx.benchStale(m[1], m[2]) {
				out = append(out, m[1]+"."+m[2])
			}
		}
	}
	return out
}

// TestDocsNameRealCode holds the hand-written documents to the code (make
// docs-lint): every DESIGN § citation they make must head a section of
// DESIGN.md, and every dotted Go name on a repository package, every
// test, benchmark or fuzz target, every flag, every `-exp` id, every bare
// exported name, every metric family and every benchmark metric their
// inline code names must exist.
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

// TestDocsCiteRealSections holds the comments of the non-test Go files
// and the Makefile to DESIGN.md's section numbers: a DESIGN § citation
// there must head a section, as one in the documents must.
func TestDocsCiteRealSections(t *testing.T) {
	idx := indexRepo(t, ".")
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, cite := range idx.staleCitations(string(makefile)) {
		t.Errorf("Makefile: %s heads no section of DESIGN.md", cite)
	}
	for _, cite := range idx.goCites {
		t.Errorf("%s heads no section of DESIGN.md", cite)
	}
}

// TestDocsLintCatchesStaleNames plants names in a document and shows
// which the lint reports.
func TestDocsLintCatchesStaleNames(t *testing.T) {
	idx := indexRepo(t, ".")
	// A deleted top-k entry point, spelled in two pieces so that a search
	// of the code for the deleted names finds none.
	kgd := "K" + "GD"
	for _, tc := range []struct {
		doc  string
		want []string
	}{
		{"`core.GPhi`, `sp.Dijkstra.Step` and `TestDocsNameRealCode`", nil},
		{"a stale `core.KnownAlgo` beside `core.CheckAlgo`", []string{"core.KnownAlgo"}},
		{"`sp.Dijkstra.Path`, gone with the parent array", []string{"sp.Dijkstra.Path"}},
		{"`go test -bench 'BenchmarkFig5a' .`", []string{"BenchmarkFig5a"}},
		{"a metric, `core.gphi_evals_per_query`, and a foreign `http.Nope`", nil},
		{"`core.gphi_dist_us.ine`, the rung family `core.gphi_dist_us` and `qcache.hit_rate`", nil},
		{"a misspelt `core.gphi_evalz_per_query`, and `/meta`'s `indexes.phl.label_entries`", []string{"core.gphi_evalz_per_query"}},
		{"```\n`core.Nope` in a shell session\n```", nil},
		{"`fannr-server -max-inflight 8` and `go test -race -count=3 ./...`", nil},
		{"`fannr-server -coalesce-window 500us`", []string{"-coalesce-window"}},
		{"`fannr-bench -exp fig4a`, `-exp all`, `-exp fig5a`", []string{"-exp fig5a"}},
		{"`GD(g, gp, q, k)`, `KBrute`, `PHL`, `NW` and a stale `" + kgd + "`", []string{kgd}},
		{"`fannr_cache_bytes`, `fannr_index_bytes{index,mem}`, `fannr_pool_*`, `fannr_*_total` and `fannr_shard_fanout`", nil},
		{"`fannr_sets_{hits,\nfills}_total` and `fannr_requests_total{route=\"fann\"}`", nil},
		{"`fannr_gphi_evals_total{engine=…}`, `fannr_index_reloads_total{outcome=\"error\"}`", nil},
		{"a stale label key in `fannr_index_bytes{index,memory}`", []string{"fannr_index_bytes{memory}"}},
		{"a stale `fannr_batch_wait_seconds`", []string{"fannr_batch_wait_seconds"}},
		{"`fannr_sets_{hits,waits}_total`, `fannr_batch_*`", []string{"fannr_sets_{hits,waits}_total", "fannr_batch_*"}},
		{"DESIGN §1, `DESIGN.md §2` and a DESIGN.md\n// §3 broken over a comment line", nil},
		{"a stale DESIGN §99 beside DESIGN.md §1", []string{"DESIGN §99"}},
	} {
		if got := idx.stale(tc.doc); strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("%q: stale %q, want %q", tc.doc, got, tc.want)
		}
	}
}
