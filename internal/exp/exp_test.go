package exp

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
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

// One shared Env exercises every Env-based driver without rebuilding
// indexes per figure.
func TestAllEnvDrivers(t *testing.T) {
	e, err := NewEnv(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	type namedDriver struct {
		id  string
		run func() ([]*Table, error)
	}
	drivers := []namedDriver{
		{"fig3a", e.Fig3a},
		{"fig3b", e.Fig3b},
		{"fig4a", e.Fig4a},
		{"fig4b", e.Fig4b},
		{"fig5", e.Fig5},
		{"fig6", e.Fig6},
		{"fig7", e.Fig7},
		{"fig8", e.Fig8},
		{"fig10", e.Fig10},
		{"fig11", e.Fig11},
		{"fig12", e.Fig12},
		{"table5", e.TableV},
		{"appendixA", e.AppendixA},
		{"appendixB", e.AppendixB},
		{"appendixC", e.AppendixC},
		{"diagnostics", e.Diagnostics},
	}
	for _, d := range drivers {
		tables, err := d.run()
		checkTables(t, d.id, tables, err)
	}
}

func TestFig9(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.008 // fig9 loads every dataset at Scale/8
	tables, err := Fig9(cfg)
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
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	tables, err := Run("fig4b", tinyConfig())
	checkTables(t, "fig4b", tables, err)
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
		// Cached on second call.
		gp2, err := e.Engine(name)
		if err != nil || gp2 != gp {
			t.Fatalf("engine %s not cached", name)
		}
	}
	if _, err := e.Engine("bogus"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestTimedRun(t *testing.T) {
	var flag atomic.Bool
	d, dnf, err := timedRun(func() error { return nil }, time.Second, &flag)
	if dnf || err != nil || d > time.Second {
		t.Fatalf("fast run: d=%v dnf=%v err=%v", d, dnf, err)
	}
	// A cooperative long-runner: spins until the cancel flag trips, then
	// returns ErrCanceled — exactly what the core algorithms do.
	var flag2 atomic.Bool
	_, dnf, err = timedRun(func() error {
		for !flag2.Load() {
			time.Sleep(time.Millisecond)
		}
		return core.ErrCanceled
	}, 20*time.Millisecond, &flag2)
	if !dnf || err != nil {
		t.Fatalf("overrun not detected: dnf=%v err=%v", dnf, err)
	}
	if !flag2.Load() {
		t.Fatal("cancel flag never tripped")
	}
	wantErr := errors.New("boom")
	var flag3 atomic.Bool
	_, dnf, err = timedRun(func() error { return wantErr }, time.Second, &flag3)
	if dnf || !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: dnf=%v err=%v", dnf, err)
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
