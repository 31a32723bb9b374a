package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Cell is one measured value in an experiment table.
type Cell struct {
	Value float64
	DNF   bool // did not finish within the time budget
	Skip  bool // not applicable / not run
	Note  string
}

// Series is one plot line of a figure (or one row of a table).
type Series struct {
	Name  string
	Cells []Cell
}

// Table is a rendered experiment: the rows/series of one figure or table
// of the paper.
type Table struct {
	ID     string // "fig4a", "table5", ...
	Title  string
	XLabel string
	YLabel string
	Ticks  []string
	Series []Series
}

// newTable returns a table over ticks with one empty series per name.
func newTable(id, title, xlabel, ylabel string, ticks []tickSpec, names ...string) *Table {
	t := &Table{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel}
	for _, tick := range ticks {
		t.Ticks = append(t.Ticks, tick.label)
	}
	for _, name := range names {
		t.Series = append(t.Series, Series{Name: name})
	}
	return t
}

// push appends one tick's cells, one per series in order.
func (t *Table) push(cells ...Cell) {
	for i, c := range cells {
		t.Series[i].Cells = append(t.Series[i].Cells, c)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "y: %s\n", t.YLabel)
	width := 12
	for _, s := range t.Series {
		if len(s.Name)+2 > width {
			width = len(s.Name) + 2
		}
	}
	fmt.Fprintf(w, "%-*s", width, t.XLabel)
	for _, tick := range t.Ticks {
		fmt.Fprintf(w, "%14s", tick)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", width+14*len(t.Ticks)))
	for _, s := range t.Series {
		fmt.Fprintf(w, "%-*s", width, s.Name)
		for _, c := range s.Cells {
			fmt.Fprintf(w, "%14s", c.String())
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV writes the table as CSV (one header row of ticks, one row per
// series) for downstream plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{t.ID}, t.Ticks...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range t.Series {
		row := make([]string, 0, len(s.Cells)+1)
		row = append(row, s.Name)
		for _, c := range s.Cells {
			switch {
			case c.Skip:
				row = append(row, "")
			case c.DNF:
				row = append(row, "DNF")
			default:
				row = append(row, strconv.FormatFloat(c.Value, 'g', 8, 64))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String formats a cell for display.
func (c Cell) String() string {
	switch {
	case c.Skip:
		return "-"
	case c.DNF:
		return "DNF"
	case c.Note != "":
		return c.Note
	case c.Value >= 100:
		return fmt.Sprintf("%.0f", c.Value)
	case c.Value >= 1:
		return fmt.Sprintf("%.3f", c.Value)
	default:
		return fmt.Sprintf("%.5f", c.Value)
	}
}
