// Package exp implements one experiment per table and figure in the MORC
// paper's evaluation (§5). Each experiment builds the workloads, runs the
// simulator for every scheme/configuration the paper compares, and
// returns text tables whose rows mirror the paper's x-axes and series.
//
// cmd/morcbench is the CLI front-end; bench_test.go exposes each
// experiment as a testing.B benchmark; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"morc/internal/sim"
)

// Budget sets the simulation window. The paper runs 100M+30M instructions
// per workload (single-program) on a farm; the defaults here are sized
// for a laptop while keeping caches warm.
type Budget struct {
	Warmup      uint64
	Measure     uint64
	SampleEvery uint64
	// Workloads optionally restricts single-program experiments (nil =
	// the experiment's full paper set).
	Workloads []string
	// Schemes optionally restricts an experiment's scheme series to the
	// listed organizations (nil = the experiment's full paper set).
	// Schemes an experiment does not compare are ignored.
	Schemes []sim.Scheme
}

// restrictSchemes intersects an experiment's scheme series with the
// budget's Schemes filter, preserving the experiment's order.
func (b Budget) restrictSchemes(schemes []sim.Scheme) []sim.Scheme {
	if b.Schemes == nil {
		return schemes
	}
	var out []sim.Scheme
	for _, s := range schemes {
		for _, want := range b.Schemes {
			if s == want {
				out = append(out, s)
				break
			}
		}
	}
	if len(out) == 0 {
		return schemes // filter excluded everything; keep the paper set
	}
	return out
}

// Quick is the fast calibration budget.
func Quick() Budget { return Budget{Warmup: 300_000, Measure: 400_000, SampleEvery: 100_000} }

// Full is the reproduction budget.
func Full() Budget { return Budget{Warmup: 1_500_000, Measure: 2_000_000, SampleEvery: 250_000} }

// Table is a rendered experiment result.
type Table struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"` // first column is the row label
	Rows    []RowData `json:"rows"`
}

// RowData is one table row.
type RowData struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// AddRow appends a row; the number of values must match Columns[1:].
func (t *Table) AddRow(label string, values ...float64) {
	if len(values) != len(t.Columns)-1 {
		panic(fmt.Sprintf("exp: row %q has %d values for %d columns", label, len(values), len(t.Columns)-1))
	}
	t.Rows = append(t.Rows, RowData{Label: label, Values: values})
}

// Render writes the table as aligned text. fmt pads to a width in
// runes, so a column sized by the byte length of its widest cell stays
// aligned whatever its characters.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(t.Columns))
		cells[r][0] = row.Label
		widths[0] = max(widths[0], len(row.Label))
		for i, v := range row.Values {
			s := formatValue(v)
			cells[r][i+1] = s
			widths[i+1] = max(widths[i+1], len(s))
		}
	}
	writeRow := func(row []string) {
		fmt.Fprintf(w, "%-*s", widths[0], row[0])
		for i, c := range row[1:] {
			fmt.Fprintf(w, "  %*s", widths[i+1], c)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintln(w)
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Experiment is a registered experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Budget) []*Table
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[strings.ToLower(id)]
	return e, ok
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// parallelFor runs fn(i) for i in [0,n) across GOMAXPROCS workers,
// preserving deterministic result placement (fn writes to its own index).
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// pct returns the improvement of x over base in percent.
func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (x/base - 1) * 100
}

// WriteJSON emits the table as one indented JSON object. This is the
// machine-readable encoding morcd returns for experiment jobs; morcbench
// -json emits the same bytes so CLI and service output are
// interchangeable for downstream tooling.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// WriteTablesJSON emits a slice of tables as one indented JSON array.
func WriteTablesJSON(w io.Writer, tables []*Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}

// WriteCSV emits the table as CSV (for plotting pipelines).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := []string{row.Label}
		for _, v := range row.Values {
			cells = append(cells, formatValue(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
