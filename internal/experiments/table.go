package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Column is one column of a Table: its header name and the fmt verb that
// prints its cells.
type Column struct {
	Name   string
	Format string
}

// Note is one "# " comment line of a Table: Format applied to Args. Numbers
// stay in Args, so a reader looks them up instead of parsing the line.
type Note struct {
	Format string
	Args   []any
}

// String applies Format to Args.
func (n Note) String() string { return fmt.Sprintf(n.Format, n.Args...) }

// Table is one figure of the evaluation as data. Rows hold raw cells —
// float64, int or string — that print with their column's verb, so tests and
// the scorecard read the numbers the figure plots.
type Table struct {
	Name    string // "1", "2", "4a" … "11", or "scorecard"
	Title   string
	Notes   []Note // printed between the title and the header
	Columns []Column
	Rows    [][]any
	Footer  []Note // printed after the last row
}

// String renders the table as expdriver prints it: the "# " title and notes,
// the tab-separated header, one tab-separated line per row, then the footer.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, t.Columns[i].Format, cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Footer {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// Cells returns the named column's raw cells in row order, or nil when the
// table has no such column.
func (t Table) Cells(name string) []any {
	i := slices.IndexFunc(t.Columns, func(c Column) bool { return c.Name == name })
	if i < 0 {
		return nil
	}
	cells := make([]any, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = row[i]
	}
	return cells
}

// Floats returns the named column's cells as numbers in row order: int cells
// convert, and a cell that is not a number reads as NaN.
func (t Table) Floats(name string) []float64 {
	cells := t.Cells(name)
	if cells == nil {
		return nil
	}
	out := make([]float64, len(cells))
	for i, cell := range cells {
		switch v := cell.(type) {
		case float64:
			out[i] = v
		case int:
			out[i] = float64(v)
		default:
			out[i] = math.NaN()
		}
	}
	return out
}

// Lookup returns the number in column col of the first row whose column key
// holds the cell want, or NaN when there is no such row or column.
func (t Table) Lookup(key string, want any, col string) float64 {
	vals := t.Floats(col)
	if i := slices.Index(t.Cells(key), want); i >= 0 && vals != nil {
		return vals[i]
	}
	return math.NaN()
}

// catalog lists each experiment — one set of simulation runs — with the
// tables it yields, in the order `expdriver -fig all` prints them. Figures
// that view the same runs share one experiment.
var catalog = []struct {
	names []string
	run   func(Options) ([]Table, error)
}{
	{[]string{"1"}, figure1},
	{[]string{"2"}, figure2},
	{[]string{"4a", "4b"}, knobSweep},
	{[]string{"4c"}, figure4c},
	{[]string{"5a", "5b", "6", "7"}, comparison},
	{[]string{"8"}, figure8},
	{[]string{"9a", "9b"}, networkSweep},
	{[]string{"10"}, figure10},
	{[]string{"11"}, figure11},
}

// Names lists every figure table in the order `expdriver -fig all` prints
// them.
func Names() []string {
	var names []string
	for _, e := range catalog {
		names = append(names, e.names...)
	}
	return names
}

// scorecardName names the table of the paper's claims. Tables builds it from
// the figure tables; it is not one of Names.
const scorecardName = "scorecard"

// Tables builds the named tables in request order. Each experiment runs at
// most once per call however many of its tables are asked for, so Figures
// 5a, 5b, 6 and 7 share one run of the §8.3 comparison. Besides Names,
// "scorecard" builds the paper's claims checked against the figure tables.
func Tables(opts Options, names ...string) ([]Table, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &tableSet{opts: opts, built: make(map[string]Table)}
	out := make([]Table, 0, len(names))
	for _, name := range names {
		t, err := s.get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// tableSet holds the tables one Tables call has built so far.
type tableSet struct {
	opts  Options
	built map[string]Table
}

// get returns the named table, running its experiment if no earlier table
// of the call has.
func (s *tableSet) get(name string) (Table, error) {
	if t, ok := s.built[name]; ok {
		return t, nil
	}
	if name == scorecardName {
		t, err := scorecard(s)
		if err != nil {
			return Table{}, err
		}
		s.built[name] = t
		return t, nil
	}
	for _, e := range catalog {
		if !slices.Contains(e.names, name) {
			continue
		}
		tables, err := e.run(s.opts)
		if err != nil {
			return Table{}, fmt.Errorf("experiments: figure %s: %w", name, err)
		}
		for _, t := range tables {
			s.built[t.Name] = t
		}
		return s.built[name], nil
	}
	return Table{}, fmt.Errorf("experiments: unknown figure %q (want one of %s, or %s)",
		name, strings.Join(Names(), ", "), scorecardName)
}
