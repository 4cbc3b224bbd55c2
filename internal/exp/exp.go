// Package exp implements one experiment per table and figure in the MORC
// paper's evaluation (§5). Each experiment lists the simulations it
// needs, every workload or mix under every configuration the paper
// compares; one runner executes the list on a pool under a context; and
// the experiment returns text tables whose rows mirror the paper's
// x-axes and series.
//
// cmd/morcbench is the CLI front-end; bench_test.go exposes each
// experiment as a testing.B benchmark; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"morc/internal/sim"
	"morc/internal/stats"
	"morc/internal/trace"
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
	// listed organizations (nil = the experiment's full paper set). The
	// first scheme of the paper set, which the other series are measured
	// against, always runs; schemes an experiment does not compare are
	// ignored.
	Schemes []sim.Scheme
}

// Validate refuses a budget whose Workloads names a workload the
// catalog does not have, naming every one.
func (b Budget) Validate() error {
	var bad []string
	for _, w := range b.Workloads {
		if _, err := trace.Get(w); err != nil {
			bad = append(bad, strconv.Quote(w))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("unknown workloads %s", strings.Join(bad, ", "))
	}
	return nil
}

// Config returns sim.DefaultConfig running scheme s over b's window.
func (b Budget) Config(s sim.Scheme) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = s
	cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = b.Warmup, b.Measure, b.SampleEvery
	return cfg
}

// configs returns b's configuration of each scheme.
func (b Budget) configs(schemes []sim.Scheme) []sim.Config {
	cfgs := make([]sim.Config, len(schemes))
	for i, s := range schemes {
		cfgs[i] = b.Config(s)
	}
	return cfgs
}

// mix is the budget of a sixteen-core mix, each core of which runs a
// quarter of b's window: four times a single program's work.
func (b Budget) mix() Budget {
	b.Warmup, b.Measure = b.Warmup/4, b.Measure/4
	return b
}

// workloads returns the budget's workload filter, or paper, the
// experiment's own set, when it has none.
func (b Budget) workloads(paper []string) []string {
	if b.Workloads == nil {
		return paper
	}
	return b.Workloads
}

// restrictSchemes intersects an experiment's scheme series with the
// budget's Schemes filter, preserving the experiment's order and always
// keeping its first scheme, the baseline. A filter that names none of
// the series keeps them all.
func (b Budget) restrictSchemes(schemes []sim.Scheme) []sim.Scheme {
	named := func(s sim.Scheme) bool { return slices.Contains(b.Schemes, s) }
	if !slices.ContainsFunc(schemes, named) {
		return schemes // no filter, or one that names none of the series
	}
	out := schemes[:1:1]
	for _, s := range schemes[1:] {
		if named(s) {
			out = append(out, s)
		}
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
	// Note states a rule the values follow that the title cannot, such
	// as which rows an aggregate leaves out; Render prints it below the
	// rows.
	Note string `json:"note,omitempty"`
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

// aggregate names a summary row and the statistic it takes of a column.
type aggregate struct {
	label string
	of    func([]float64) float64
}

var (
	amean = aggregate{"AMean", stats.Mean}
	gmean = aggregate{"GMean", stats.GeoMean}
)

// addRows adds a row per label of cell(i, c) for each value column c,
// then a row per aggregate of each column's cells.
func (t *Table) addRows(labels []string, cell func(i, c int) float64, aggs ...aggregate) {
	cols := make([][]float64, len(t.Columns)-1)
	for i, label := range labels {
		row := make([]float64, len(cols))
		for c := range row {
			row[c] = cell(i, c)
			cols[c] = append(cols[c], row[c])
		}
		t.AddRow(label, row...)
	}
	for _, a := range aggs {
		row := make([]float64, len(cols))
		for c, vals := range cols {
			row[c] = a.of(vals)
		}
		t.AddRow(a.label, row...)
	}
}

// asPercent rewrites every value of t, a ratio to a baseline, as the
// improvement over the baseline in percent.
func (t *Table) asPercent() *Table {
	for _, row := range t.Rows {
		for c, v := range row.Values {
			row.Values[c] = (v - 1) * 100
		}
	}
	return t
}

// columns heads a table: its row-label column, then one per scheme.
func columns(label string, schemes []sim.Scheme) []string {
	cols := []string{label}
	for _, s := range schemes {
		cols = append(cols, s.String())
	}
	return cols
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
	if t.Note != "" {
		fmt.Fprintf(w, "(%s)\n", t.Note)
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
	run   func(context.Context, Budget) []*Table
}

// Run runs the experiment at budget b: every simulation it needs, on
// one pool, under ctx. It returns the tables, or the first error a run
// met (a panic included), or ctx's error once ctx is done.
func (e Experiment) Run(ctx context.Context, b Budget) (tables []*Table, err error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	defer func() {
		switch r := recover().(type) {
		case nil:
		case failed:
			tables, err = nil, r.err
		default:
			panic(r)
		}
	}()
	return e.run(ctx, b), nil
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
