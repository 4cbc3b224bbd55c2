package check_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"morc/internal/exp"
	"morc/internal/sim"
)

var (
	update     = flag.Bool("update", false, "rewrite the golden files under testdata/golden")
	fullBudget = flag.Bool("full-budget", false, "also run the goldens pinned at exp.Full (about a minute each on 2 CPUs)")
)

// goldenTol is the relative tolerance for simulator-derived metrics.
// The simulator is fully deterministic, so goldens normally match
// bit-for-bit; the tolerance only absorbs float formatting and libm
// differences across platforms while still catching real drift.
const goldenTol = 1e-6

// goldenCase pins one experiment at a fixed budget. Most budgets are
// far below the paper's (the goldens are regression anchors, not
// results); what matters is that they are deterministic and fast. A
// full case pins the reproduction budget, whose long runs no tiny
// budget reaches, and runs only under -full-budget.
type goldenCase struct {
	name   string
	file   string // golden file stem, and the subtest name; name if empty
	budget exp.Budget
	heavy  bool // skipped under -short
	full   bool // run only under -full-budget
}

func (gc goldenCase) stem() string {
	if gc.file != "" {
		return gc.file
	}
	return gc.name
}

func goldenCases() []goldenCase {
	tiny := exp.Budget{
		Warmup: 60_000, Measure: 90_000, SampleEvery: 30_000,
		Workloads: []string{"gcc", "mcf", "cactusADM"},
	}
	// fig8 runs every Table 6 mix regardless of Workloads; restricting
	// the schemes keeps it to 2 runs per mix.
	fig8 := exp.Budget{
		Warmup: 60_000, Measure: 90_000, SampleEvery: 30_000,
		Schemes: []sim.Scheme{sim.Uncompressed, sim.MORC},
	}
	return []goldenCase{
		{name: "fig6", budget: tiny, heavy: true},
		{name: "fig6", file: "fig6-full", budget: exp.Full(), heavy: true, full: true},
		{name: "fig7", budget: tiny, heavy: true},
		{name: "fig8", budget: fig8, heavy: true},
		{name: "fig9", budget: tiny, heavy: true},
		// Static tables need no simulation and stay in the -short lane.
		{name: "tab1"},
		{name: "tab4"},
		{name: "tab5"},
		{name: "tab7"},
	}
}

// TestGoldenResults runs each pinned experiment at its budget and
// compares every metric against testdata/golden/<stem>.json. Regenerate
// after an intentional change with:
//
//	go test ./internal/check -run TestGoldenResults -update [-full-budget]
//
// The full-budget goldens run only with -full-budget:
//
//	go test ./internal/check -run TestGoldenResults/fig6-full -full-budget
func TestGoldenResults(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.stem(), func(t *testing.T) {
			if gc.full && !*fullBudget {
				t.Skip("full-budget golden; run with -full-budget")
			}
			if gc.heavy && testing.Short() {
				t.Skip("heavy golden run; use the full (non -short) lane")
			}
			e, ok := exp.Get(gc.name)
			if !ok {
				t.Fatalf("experiment %q is not registered", gc.name)
			}
			got := e.Run(gc.budget)
			path := filepath.Join("testdata", "golden", gc.stem()+".json")
			if *update {
				fh, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				defer fh.Close()
				if err := exp.WriteTablesJSON(fh, got); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file (regenerate with -update): %v", err)
			}
			var want []*exp.Table
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			compareTables(t, gc.name, got, want)
		})
	}
}

// compareTables reports every metric that drifted beyond goldenTol.
func compareTables(t *testing.T, name string, got, want []*exp.Table) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: produced %d tables, golden has %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Title != w.Title {
			t.Errorf("%s: table %d is %q (%s), golden has %q (%s)", name, i, g.ID, g.Title, w.ID, w.Title)
			continue
		}
		if !equalStrings(g.Columns, w.Columns) {
			t.Errorf("%s/%s: columns %v, golden has %v", name, g.ID, g.Columns, w.Columns)
			continue
		}
		if len(g.Rows) != len(w.Rows) {
			t.Errorf("%s/%s: %d rows, golden has %d", name, g.ID, len(g.Rows), len(w.Rows))
			continue
		}
		for r := range g.Rows {
			gr, wr := g.Rows[r], w.Rows[r]
			if gr.Label != wr.Label {
				t.Errorf("%s/%s: row %d labeled %q, golden has %q", name, g.ID, r, gr.Label, wr.Label)
				continue
			}
			if len(gr.Values) != len(wr.Values) {
				t.Errorf("%s/%s: row %q has %d values, golden has %d",
					name, g.ID, gr.Label, len(gr.Values), len(wr.Values))
				continue
			}
			for c := range gr.Values {
				if !near(gr.Values[c], wr.Values[c]) {
					t.Errorf("%s/%s: row %q column %q drifted: got %v, golden %v (tol %g; -update if intended)",
						name, g.ID, gr.Label, g.Columns[c+1], gr.Values[c], wr.Values[c], goldenTol)
				}
			}
		}
	}
}

// near compares with relative tolerance (absolute below magnitude 1).
func near(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= goldenTol*scale
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
