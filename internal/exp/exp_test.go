package exp

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/workload"
)

func tinyConfig() Config {
	return Config{
		Dataset: "DE",
		Scale:   0.02, // ~1k nodes
		Queries: 1,
		Seed:    7,
		Timeout: 1500 * time.Millisecond,
	}
}

func checkTables(t *testing.T, id string, tables []*Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tbl := range tables {
		if tbl.ID == "" || tbl.Title == "" || len(tbl.Ticks) == 0 || len(tbl.Series) == 0 {
			t.Fatalf("%s: malformed table %+v", id, tbl)
		}
		for _, s := range tbl.Series {
			if len(s.Cells) != len(tbl.Ticks) {
				t.Fatalf("%s/%s: series %q has %d cells for %d ticks",
					id, tbl.ID, s.Name, len(s.Cells), len(tbl.Ticks))
			}
			for ci, c := range s.Cells {
				if c.Note == "ERR" {
					t.Fatalf("%s/%s: series %q errored at tick %s",
						id, tbl.ID, s.Name, tbl.Ticks[ci])
				}
				if !c.DNF && !c.Skip && c.Value < 0 {
					t.Fatalf("%s/%s: negative cell", id, tbl.ID)
				}
			}
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		if !strings.Contains(buf.String(), tbl.ID) {
			t.Fatalf("%s: render missing table id", id)
		}
	}
}

// TestExperimentSmoke runs every registry id through Run on one shared
// Env at 1/1024 scale: the Env is built once, every table is well formed
// with no errored cell, and the count-valued diagnostics table is the
// same run alone on a fresh Env, after fig5 on that Env, and inside the
// full run, so each experiment re-seeds its draws.
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	cfg := Config{Scale: 1.0 / 1024, Queries: 1, Seed: 1, Timeout: 2 * time.Second}
	envs := 0
	var diag *Table
	err := Run(ExperimentIDs(), cfg, func(id string, tables []*Table, took time.Duration) {
		if id == "env" {
			envs++
			return
		}
		checkTables(t, id, tables, nil)
		if id == "diagnostics" {
			diag = tables[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if envs != 1 {
		t.Fatalf("built the Env %d times, want once", envs)
	}

	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := e.Run("diagnostics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run("fig5"); err != nil {
		t.Fatal(err)
	}
	after, err := e.Run("diagnostics")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone[0], after[0]) || !reflect.DeepEqual(alone[0], diag) {
		var a, b, c bytes.Buffer
		alone[0].Render(&a)
		after[0].Render(&b)
		diag.Render(&c)
		t.Fatalf("diagnostics differ:\nalone\n%s\nafter fig5\n%s\nin the full run\n%s", &a, &b, &c)
	}
}

// TestFig9 runs Fig. 9 alone: it loads its own seven datasets and builds
// no Env.
func TestFig9(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.008 // fig9 loads every dataset at Scale/8
	var tables []*Table
	err := Run([]string{"fig9"}, cfg, func(id string, tbls []*Table, _ time.Duration) {
		if id != "fig9" {
			t.Fatalf("fig9 alone reported step %q", id)
		}
		tables = tbls
	})
	checkTables(t, "fig9", tables, err)
	if len(tables) != 2 {
		t.Fatalf("fig9 returned %d tables, want 2", len(tables))
	}
	if len(tables[0].Ticks) != 7 {
		t.Fatalf("fig9 covers %d datasets, want 7", len(tables[0].Ticks))
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "table5",
		"appendixA", "appendixB", "appendixC",
		"diagnostics",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("registry missing %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	ids := ExperimentIDs()
	if len(ids) != len(want) {
		t.Fatal("ExperimentIDs incomplete")
	}
	if _, err := (&Env{}).Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunDispatch: Run refuses an unknown id before running anything, and
// otherwise reports the Env build, then each experiment in order.
func TestRunDispatch(t *testing.T) {
	var steps []string
	record := func(id string, tables []*Table, _ time.Duration) {
		steps = append(steps, id)
		if id != "env" {
			checkTables(t, id, tables, nil)
		}
	}
	if err := Run([]string{"fig4b", "nope"}, tinyConfig(), record); err == nil || len(steps) != 0 {
		t.Fatalf("unknown id: error %v after steps %q", err, steps)
	}
	if err := Run([]string{"fig4b", "appendixA", "fig4b"}, tinyConfig(), record); err != nil {
		t.Fatal(err)
	}
	if want := []string{"env", "fig4b", "appendixA", "fig4b"}; !slices.Equal(steps, want) {
		t.Fatalf("steps %q, want %q", steps, want)
	}
}

func TestEngines(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range EngineNames {
		gp, err := e.Engine(name)
		if err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		if gp.Name() == "" {
			t.Fatalf("engine %s has empty name", name)
		}
	}
	if _, err := e.Engine("bogus"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestTimedRun(t *testing.T) {
	var q core.Query
	d, dnf, err := timedRun(&q, time.Second, func() error { return nil })
	if dnf || err != nil || d > time.Second {
		t.Fatalf("fast run: d=%v dnf=%v err=%v", d, dnf, err)
	}
	// A cooperative long-runner: polls the query's cancel hook until the
	// deadline trips it, then returns ErrCanceled — exactly what the core
	// algorithms do.
	d, dnf, err = timedRun(&q, 20*time.Millisecond, func() error {
		for !q.Cancel() {
			time.Sleep(time.Millisecond)
		}
		return core.ErrCanceled
	})
	if !dnf || err != nil || d != 20*time.Millisecond {
		t.Fatalf("overrun not detected: d=%v dnf=%v err=%v", d, dnf, err)
	}
	wantErr := errors.New("boom")
	_, dnf, err = timedRun(&q, time.Second, func() error { return wantErr })
	if dnf || !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: dnf=%v err=%v", dnf, err)
	}
}

// TestTimedRListAllocs: a series runs on its own Scratch, as a served
// query runs on its engine's, so a warm timed R-List query allocates only
// its deadline binding and the answer, not |Q| expansion lanes and two
// graph-sized node sets (hundreds of objects at M = 128).
func TestTimedRListAllocs(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := e.build([]algoSpec{{name: "R-List", agg: core.Max, engine: "PHL", run: rlist}})
	if err != nil {
		t.Fatal(err)
	}
	inst := &e.generate(workload.DefaultParams())[0]
	run := func() {
		if _, dnf, err := e.timeOne(&specs[0], inst, 1, time.Minute); dnf || err != nil {
			t.Fatalf("timed R-List: dnf=%v err=%v", dnf, err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 40 {
		t.Fatalf("a warm timed R-List run allocates %.0f objects, want <= 40 (|Q| = %d)", allocs, len(inst.query.Q))
	}
}

func TestWriteCSV(t *testing.T) {
	tbl := &Table{
		ID:    "demo",
		Ticks: []string{"a", "b"},
		Series: []Series{
			{Name: "s1", Cells: []Cell{{Value: 1.5}, {DNF: true}}},
			{Name: "s2", Cells: []Cell{{Skip: true}, {Value: 0.25}}},
		},
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "demo,a,b\ns1,1.5,DNF\ns2,,0.25\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestCellString(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Cell{Skip: true}, "-"},
		{Cell{DNF: true}, "DNF"},
		{Cell{Note: "OOM", Skip: true}, "-"},
		{Cell{Value: 123.4}, "123"},
		{Cell{Value: 1.5}, "1.500"},
		{Cell{Value: 0.01234}, "0.01234"},
	}
	for _, c := range cases {
		if got := c.cell.String(); got != c.want {
			t.Fatalf("Cell %+v = %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestRenderChart(t *testing.T) {
	tbl := &Table{
		ID:    "chartdemo",
		Title: "demo",
		Ticks: []string{"x1", "x2", "x3"},
		Series: []Series{
			{Name: "fast", Cells: []Cell{{Value: 0.001}, {Value: 0.002}, {Value: 0.004}}},
			{Name: "slow", Cells: []Cell{{Value: 1}, {Value: 2}, {DNF: true}}},
		},
	}
	var buf bytes.Buffer
	tbl.RenderChart(&buf)
	out := buf.String()
	for _, want := range []string{"chartdemo", "(log y)", "A = fast", "B = slow", "x2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// The slow series must plot above the fast one: find rows.
	lines := strings.Split(out, "\n")
	rowOf := func(marker byte) int {
		for i, l := range lines {
			if strings.ContainsRune(l, rune(marker)) && strings.Contains(l, "|") {
				return i
			}
		}
		return -1
	}
	if a, b := rowOf('A'), rowOf('B'); a <= b || a < 0 || b < 0 {
		t.Fatalf("series order wrong in chart: A at %d, B at %d\n%s", a, b, out)
	}
	// Degenerate table: nothing plottable.
	empty := &Table{ID: "none", Ticks: []string{"x"}, Series: []Series{{Name: "s", Cells: []Cell{{DNF: true}}}}}
	buf.Reset()
	empty.RenderChart(&buf)
	if !strings.Contains(buf.String(), "no plottable values") {
		t.Fatal("degenerate chart not handled")
	}
}

// TestPushRatios: a tick with no measured ratio is a skip in every series
// of a quality table, never a zero ratio.
func TestPushRatios(t *testing.T) {
	tbl := newTable("q", "quality", "x", "ratio", []tickSpec{{label: "a"}, {label: "b"}}, "mean", "std", "worst")
	tbl.pushRatios(nil)
	tbl.pushRatios([]float64{1, 3})
	want := [][]Cell{{{Skip: true}, {Value: 2}}, {{Skip: true}, {Value: 1}}, {{Skip: true}, {Value: 3}}}
	for i, s := range tbl.Series {
		if !slices.Equal(s.Cells, want[i]) {
			t.Fatalf("%s: cells %+v, want %+v", s.Name, s.Cells, want[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	mean, std, worst := summarize([]float64{1, 1, 1, 1})
	if mean != 1 || std != 0 || worst != 1 {
		t.Fatalf("constant series: %v %v %v", mean, std, worst)
	}
	mean, std, worst = summarize([]float64{1, 3})
	if mean != 2 || std != 1 || worst != 3 {
		t.Fatalf("pair series: %v %v %v", mean, std, worst)
	}
	mean, std, worst = summarize(nil)
	if mean != 0 || std != 0 || worst != 0 {
		t.Fatalf("empty series: %v %v %v", mean, std, worst)
	}
}

func TestGTreeLeafFor(t *testing.T) {
	cases := map[string]int{"DE": 64, "ME": 128, "COL": 128, "NW": 256, "E": 256, "CTR": 512, "USA": 512}
	for name, want := range cases {
		if got := gtreeLeafFor(name); got != want {
			t.Fatalf("gtreeLeafFor(%s) = %d, want %d", name, got, want)
		}
	}
}
