package exp

import (
	"bytes"
	"strings"
	"testing"

	"morc/internal/sim"
)

// skipIfShort keeps multi-hundred-thousand-instruction simulations out
// of the -short lane (see README "Testing").
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy simulation; run without -short")
	}
}

// tiny returns a minimal budget restricted to three contrasting
// workloads so every experiment path runs in seconds.
func tiny() Budget {
	return Budget{
		Warmup:      150_000,
		Measure:     150_000,
		SampleEvery: 40_000,
		Workloads:   []string{"gcc", "bzip2", "cactusADM"},
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate", "codecs", "ext", "fig2", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15",
		"ratiots", "tab1", "tab4", "tab5", "tab7"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	if _, ok := Get("FIG2"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := Get("nosuch"); ok {
		t.Fatal("bogus id resolved")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"row", "a", "b"}}
	tab.AddRow("first", 1.5, 200000)
	tab.AddRow("second", 0.25, 3)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"## x — demo", "first", "1.500", "second"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tab := &Table{Columns: []string{"row", "a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity did not panic")
		}
	}()
	tab.AddRow("x", 1, 2)
}

func TestStaticTables(t *testing.T) {
	for _, id := range []string{"tab1", "tab4", "tab5", "tab7"} {
		e, _ := Get(id)
		tables := e.Run(Budget{})
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestTab4MORCOverheads(t *testing.T) {
	e, _ := Get("tab4")
	tab := e.Run(Budget{})[0]
	for _, row := range tab.Rows {
		if row.Label == "MORCMerged" {
			// Merged has no separate tag store; metadata is the LMT.
			if row.Values[0] != 0 {
				t.Fatalf("MORCMerged tags = %g, want 0", row.Values[0])
			}
			if row.Values[1] < 10 || row.Values[1] > 25 {
				t.Fatalf("MORCMerged metadata %% = %g out of plausible range", row.Values[1])
			}
		}
	}
}

func TestFig2Runs(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("fig2")
	tables := e.Run(tiny())
	if len(tables) != 2 {
		t.Fatalf("fig2 returned %d tables", len(tables))
	}
	// Inter must beat intra on the means row.
	for _, tab := range tables[:1] {
		last := tab.Rows[len(tab.Rows)-1]
		if last.Values[1] < last.Values[0] {
			t.Fatalf("%s: inter %.2f below intra %.2f", tab.ID, last.Values[1], last.Values[0])
		}
	}
}

func TestFig6Runs(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("fig6")
	tables := e.Run(tiny())
	if len(tables) != 4 {
		t.Fatalf("fig6 returned %d tables", len(tables))
	}
	ratio := tables[0]
	if len(ratio.Rows) != 3+2 { // workloads + AMean + GMean
		t.Fatalf("fig6a rows = %d", len(ratio.Rows))
	}
	// Uncompressed column stays ~1 or below; MORC compresses gcc.
	for _, row := range ratio.Rows {
		if row.Label == "gcc" {
			if row.Values[0] > 1.01 {
				t.Fatalf("uncompressed gcc ratio %.2f", row.Values[0])
			}
			if row.Values[len(row.Values)-1] < 1.2 {
				t.Fatalf("MORC gcc ratio %.2f", row.Values[len(row.Values)-1])
			}
		}
	}
}

func TestFig7SharesSumToOne(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("fig7")
	tab := e.Run(tiny())[0]
	for _, row := range tab.Rows {
		sum := 0.0
		for _, v := range row.Values[:7] { // m256..u8 partition the data
			sum += v
		}
		if sum < 0.98 || sum > 1.02 {
			t.Fatalf("%s: symbol shares sum to %.3f", row.Label, sum)
		}
	}
}

func TestFig12InclusiveWorse(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("fig12")
	tab := e.Run(tiny())[0]
	last := tab.Rows[len(tab.Rows)-1] // AMean
	if last.Values[0] <= last.Values[1] {
		t.Fatalf("inclusive invalid %% %.1f not above non-inclusive %.1f",
			last.Values[0], last.Values[1])
	}
}

func TestFig13bMoreLogsNoWorse(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("fig13b")
	b := tiny()
	tab := e.Run(b)[0]
	first := tab.Rows[0].Values[0]              // 1 active log
	best := tab.Rows[len(tab.Rows)-1].Values[0] // 64 logs
	for _, row := range tab.Rows {
		if row.Values[0] > best {
			best = row.Values[0]
		}
	}
	if best < first*0.95 {
		t.Fatalf("multi-log never helps: 1-log %.2f vs best %.2f", first, best)
	}
}

func TestFig15Runs(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("fig15")
	tab := e.Run(tiny())[0]
	gmean := tab.Rows[len(tab.Rows)-1]
	// Merged sacrifices only limited ratio (paper: <0.5x for most).
	if gmean.Values[1] < gmean.Values[0]*0.5 {
		t.Fatalf("merged ratio %.2f collapsed vs %.2f", gmean.Values[1], gmean.Values[0])
	}
}

func TestRatioTSExperiment(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("ratiots")
	b := tiny()
	tables := e.Run(b)
	if len(tables) != len(b.Workloads) {
		t.Fatalf("ratiots returned %d tables for %d workloads", len(tables), len(b.Workloads))
	}
	for _, tab := range tables {
		// The 150k window on a Measure/12 grid gives the full 12 epochs.
		if len(tab.Rows) < ratioTSEpochs {
			t.Fatalf("%s: %d epoch rows, want >= %d", tab.ID, len(tab.Rows), ratioTSEpochs)
		}
		if len(tab.Columns) != len(sim.ComparedSchemes())+1 {
			t.Fatalf("%s: %d columns", tab.ID, len(tab.Columns))
		}
	}
	// gcc: by the last epoch the MORC column (last) must show real
	// compression while Uncompressed (first) stays at ~1x occupancy cap.
	gcc := tables[0]
	last := gcc.Rows[len(gcc.Rows)-1]
	if last.Values[len(last.Values)-1] < 1.2 {
		t.Fatalf("gcc MORC final-epoch ratio %.2f", last.Values[len(last.Values)-1])
	}
	if last.Values[0] > 1.01 {
		t.Fatalf("gcc Uncompressed final-epoch ratio %.2f", last.Values[0])
	}
}

func TestCodecsExperiment(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("codecs")
	tab := e.Run(tiny())[0]
	gm := tab.Rows[len(tab.Rows)-1]
	lbeR, lzR, cpackR, fpcR := gm.Values[0], gm.Values[1], gm.Values[2], gm.Values[3]
	// Paper claims: LZ ~ LBE; C-Pack ~ FPC; streaming beats intra-line.
	if lbeR < cpackR*0.9 {
		t.Fatalf("LBE %.2f not competitive with C-Pack %.2f", lbeR, cpackR)
	}
	if lzR < lbeR*0.5 || lzR > lbeR*3 {
		t.Fatalf("LZ %.2f wildly different from LBE %.2f", lzR, lbeR)
	}
	if fpcR < cpackR*0.5 || fpcR > cpackR*2 {
		t.Fatalf("FPC %.2f wildly different from C-Pack %.2f", fpcR, cpackR)
	}
}

func TestAblateExperiment(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("ablate")
	tab := e.Run(tiny())[0]
	if len(tab.Rows) < 6 {
		t.Fatalf("ablation has %d variants", len(tab.Rows))
	}
	byName := map[string]float64{}
	for _, r := range tab.Rows {
		byName[r.Label] = r.Values[0]
	}
	// A single log can only do worse or equal (less content sorting).
	if byName["single-log"] > byName["default"]*1.1 {
		t.Fatalf("single-log %.2f above default %.2f", byName["single-log"], byName["default"])
	}
	// Crippling large-granularity matches cannot help.
	if byName["32b-only-lbe"] > byName["default"]*1.05 {
		t.Fatalf("32b-only %.2f above default %.2f", byName["32b-only-lbe"], byName["default"])
	}
}

func TestExtensionsExperiment(t *testing.T) {
	skipIfShort(t)
	e, _ := Get("ext")
	tables := e.Run(tiny())
	if len(tables) != 3 {
		t.Fatalf("ext returned %d tables", len(tables))
	}
	// Link compression must not increase traffic.
	link := tables[1]
	var plain, withLink float64
	for _, r := range link.Rows {
		switch r.Label {
		case "Uncompressed":
			plain = r.Values[1]
		case "Uncompressed+link":
			withLink = r.Values[1]
		}
	}
	if withLink > plain+0.01 {
		t.Fatalf("link compression increased traffic: %.2f vs %.2f", withLink, plain)
	}
	// Synchronized same-program threads share fills: off-chip traffic
	// must drop sharply (the §5.2 Execution-Drafting argument).
	sync := tables[2]
	for _, r := range sync.Rows {
		if r.Values[1] > r.Values[0]*0.5 {
			t.Fatalf("%s: synced traffic %.2f not well below async %.2f", r.Label, r.Values[1], r.Values[0])
		}
	}
}

func TestFig6ColumnHeaders(t *testing.T) {
	skipIfShort(t)
	// Regression: the improvement panels must not alias (and clobber)
	// the ratio panel's column slice.
	e, _ := Get("fig6")
	b := tiny()
	b.Workloads = []string{"gcc"}
	tables := e.Run(b)
	if got := tables[0].Columns[1]; got != "Uncompressed" {
		t.Fatalf("fig6a column 1 = %q, want Uncompressed", got)
	}
	if got := tables[2].Columns[1]; got != "Adaptive" {
		t.Fatalf("fig6c column 1 = %q, want Adaptive", got)
	}
	if len(tables[2].Columns) != len(tables[0].Columns)-1 {
		t.Fatalf("improvement panel has %d columns, ratio %d",
			len(tables[2].Columns), len(tables[0].Columns))
	}
}

func TestWriteCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"row", "a"}}
	tab.AddRow("r1", 1.25)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "row,a\nr1,1.250\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	n := 100
	hit := make([]bool, n)
	parallelFor(n, func(i int) { hit[i] = true })
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d not visited", i)
		}
	}
	// Zero work is a no-op.
	parallelFor(0, func(int) { t.Fatal("called for n=0") })
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1.5:     "1.500",
		12.34:   "12.3",
		12345.6: "12346",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Fatalf("formatValue(%g) = %q, want %q", v, got, want)
		}
	}
}
