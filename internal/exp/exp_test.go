package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"morc/internal/cache"
	"morc/internal/energy"
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

// mustRun runs e at b and fails the test on an error.
func mustRun(t *testing.T, e Experiment, b Budget) []*Table {
	t.Helper()
	tables, err := e.Run(context.Background(), b)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	return tables
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
		tables := mustRun(t, e, Budget{})
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestTab7PrintsTheModel: Table 7 prints, row for row, the constants
// the simulator charges (energy.TableDefaults and the C-Pack, SC2 and
// LBE engines), so an engine or a static power that changes shows in
// the table and moves its golden.
func TestTab7PrintsTheModel(t *testing.T) {
	const pJ, nJ, mW = 1e-12, 1e-9, 1e-3
	p := energy.TableDefaults()
	want := []struct {
		label    string
		si, unit float64
	}{
		{"L1 static power (mW)", p.L1StaticW, mW},
		{"LLC static power (mW)", p.LLCStaticW, mW},
		{"DRAM static power per core (mW)", p.DRAMStaticW, mW},
		{"L1 access energy (pJ)", p.L1AccessJ, pJ},
		{"LLC data energy (pJ)", p.LLCDataJ, pJ},
		{"C-Pack compression energy (pJ)", energy.CPack.CompressJ, pJ},
		{"C-Pack decompression energy (pJ)", energy.CPack.DecompressJ, pJ},
		{"SC2 compression energy (pJ)", energy.SC2.CompressJ, pJ},
		{"SC2 decompression energy (pJ)", energy.SC2.DecompressJ, pJ},
		{"LBE compression energy (pJ)", energy.LBE.CompressJ, pJ},
		{"LBE decompression energy (pJ per 64B)", energy.LBE.DecompressJ, pJ},
		{"64B off-chip access energy (nJ)", p.DRAMAccessJ, nJ},
	}
	e, _ := Get("tab7")
	rows := mustRun(t, e, Budget{})[0].Rows
	if len(rows) != len(want) {
		t.Fatalf("tab7 has %d rows, the model %d constants", len(rows), len(want))
	}
	for i, w := range want {
		got := rows[i]
		if got.Label != w.label || math.Abs(got.Values[0]*w.unit-w.si) > 1e-12*w.si {
			t.Errorf("row %d: tab7 prints %q = %g, the model has %q = %g", i, got.Label, got.Values[0], w.label, w.si/w.unit)
		}
	}
}

func TestTab4MORCOverheads(t *testing.T) {
	e, _ := Get("tab4")
	tab := mustRun(t, e, Budget{})[0]
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
	tables := mustRun(t, e, tiny())
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
	tables := mustRun(t, e, tiny())
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
	tab := mustRun(t, e, tiny())[0]
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
	tab := mustRun(t, e, tiny())[0]
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
	tab := mustRun(t, e, b)[0]
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
	tab := mustRun(t, e, tiny())[0]
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
	tables := mustRun(t, e, b)
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
	tab := mustRun(t, e, tiny())[0]
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
	tab := mustRun(t, e, tiny())[0]
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
	tables := mustRun(t, e, tiny())
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
	tables := mustRun(t, e, b)
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

// TestSchemesFilterKeepsTheBaseline: an experiment's first scheme, the
// baseline the others are measured against, runs under any Schemes
// filter, so MORC's fig6c, fig6d and fig9b values under {SC2, MORC} are
// the unfiltered run's. fig9 leaves its MORC panels out when the filter
// drops MORC.
func TestSchemesFilterKeepsTheBaseline(t *testing.T) {
	skipIfShort(t)
	filtered := tiny()
	filtered.Schemes = []sim.Scheme{sim.SC2, sim.MORC}
	panels := map[string]*Table{}
	var want []*Table
	for _, id := range []string{"fig6", "fig9"} {
		e, _ := Get(id)
		want = append(want, mustRun(t, e, tiny())...)
		for _, tab := range mustRun(t, e, filtered) {
			panels[tab.ID] = tab
		}
	}
	morc := func(tab *Table, row int) []float64 {
		if c := slices.Index(tab.Columns, "MORC"); c > 0 {
			return tab.Rows[row].Values[c-1 : c]
		}
		return tab.Rows[row].Values // every fig9b column is MORC's
	}
	for _, w := range want {
		got := panels[w.ID]
		switch w.ID {
		case "fig6c", "fig6d", "fig9b":
		default:
			continue
		}
		if got == nil || len(got.Rows) != len(w.Rows) {
			t.Fatalf("%s: filtered run has %v, want %d rows", w.ID, got, len(w.Rows))
		}
		for r := range w.Rows {
			if g, x := morc(got, r), morc(w, r); !slices.Equal(g, x) {
				t.Errorf("%s %s: MORC %v under the filter, %v without", w.ID, w.Rows[r].Label, g, x)
			}
		}
	}
	if got := panels["fig6a"].Columns; strings.Join(got, ",") != "workload,Uncompressed,SC2,MORC" {
		t.Errorf("fig6a columns %v", got)
	}

	e, _ := Get("fig9")
	noMORC := tiny()
	noMORC.Workloads = []string{"gcc"}
	noMORC.Schemes = []sim.Scheme{sim.SC2}
	tables := mustRun(t, e, noMORC)
	if len(tables) != 1 || tables[0].ID != "fig9a" || strings.Join(tables[0].Columns, ",") != "workload,Uncompressed,SC2" {
		t.Errorf("fig9 without MORC: %d tables, first %s %v", len(tables), tables[0].ID, tables[0].Columns)
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

// TestRunnerPlacesRunsAndStopsOnCancel: grid returns each simulation's
// outcome at its [set][configuration] index, equal to the same
// simulation run alone, with what its read took from the finished LLC.
// A cancelled context stops the pool: calls already running see their
// ctx cancelled, no further call starts, and the pool returns ctx's
// error; under a context cancelled before it starts, it calls nothing.
func TestRunnerPlacesRunsAndStopsOnCancel(t *testing.T) {
	b := Budget{Warmup: 10_000, Measure: 20_000, SampleEvery: 10_000}
	workloads := []string{"gcc", "mcf", "lbm"}
	cfgs := b.configs([]sim.Scheme{sim.Uncompressed, sim.SC2, sim.MORC})
	fills := func(llc cache.LLC) []float64 { return []float64{float64(llc.Stats().Fills)} }
	out := grid(context.Background(), singles(workloads), cfgs, fills)
	for wi, w := range workloads {
		for ci, cfg := range cfgs {
			s, err := sim.NewSingle(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.RunCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(out[wi][ci].Result)
			ref, _ := json.Marshal(want)
			if string(got) != string(ref) {
				t.Errorf("%s/%v: grid's result differs from a lone run", w, cfg.Scheme)
			}
			if n := float64(s.LLC().Stats().Fills); !slices.Equal(out[wi][ci].llc, []float64{n}) {
				t.Errorf("%s/%v: read %v, want [%g]", w, cfg.Scheme, out[wi][ci].llc, n)
			}
		}
	}
}

// TestRunReturnsTheFirstError: a simulation whose configuration fails
// validation, or whose read panics, ends Experiment.Run with that error
// (the panic as one) instead of a crash, and the runs still going stop.
func TestRunReturnsTheFirstError(t *testing.T) {
	long := Budget{Warmup: 10_000, Measure: 4_000_000_000, SampleEvery: 100_000} // runs for minutes
	short := Budget{Warmup: 10_000, Measure: 20_000, SampleEvery: 10_000}
	bad := short.Config(sim.MORC)
	bad.BWPerCore = 0
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		read func(cache.LLC) []float64
		want string
	}{
		{"invalid config", bad, nil, "BWPerCore"},
		{"panic", short.Config(sim.MORC), func(cache.LLC) []float64 { panic("read failed") }, "panicked: read failed"},
	} {
		failing := Experiment{ID: "failing", run: func(ctx context.Context, b Budget) []*Table {
			grid(ctx, singles([]string{"gcc"}), []sim.Config{tc.cfg}, tc.read)
			t.Errorf("%s: grid returned", tc.name)
			return nil
		}}
		// The failing run first, so that a one-worker pool reaches it.
		slow := Experiment{ID: "slow", run: func(ctx context.Context, b Budget) []*Table {
			grid(ctx, singles([]string{"gcc", "mcf"}), append([]sim.Config{tc.cfg}, long.configs([]sim.Scheme{sim.MORC, sim.SC2})...), tc.read)
			return nil
		}}
		for _, e := range []Experiment{failing, slow} {
			start := time.Now()
			tables, err := e.Run(context.Background(), Budget{})
			if tables != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: %v, error %v; want one containing %q", tc.name, e.ID, tables, err, tc.want)
			}
			if d := time.Since(start); d > 20*time.Second {
				t.Errorf("%s/%s: the other runs went on for %v", tc.name, e.ID, d)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	n := 1000
	err := forEach(ctx, n, func(ctx context.Context, i int) error {
		if started.Add(1) == 1 {
			cancel()
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if got := started.Load(); got > int64(runtime.GOMAXPROCS(0)) {
		t.Errorf("%d calls started after the cancel, want at most one per worker", got)
	}
	err = forEach(ctx, n, func(context.Context, int) error {
		t.Error("called under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v under a cancelled context", err)
	}
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

// TestFig8BWMeanLeavesOutZeroTrafficMixes: a mix in which Uncompressed
// moved no memory bytes has no bandwidth reduction to average. Its cell
// reads 0, and fig8b's Mean, which would divide 0 by 0, leaves it out;
// the table's note names it, and Render prints the note.
func TestFig8BWMeanLeavesOutZeroTrafficMixes(t *testing.T) {
	mix := func(base, morc uint64) []outcome {
		return []outcome{{Result: sim.Result{MemBytes: base}}, {Result: sim.Result{MemBytes: morc}}}
	}
	results := [][]outcome{mix(1000, 750), mix(0, 0), mix(0, 64), mix(500, 450)}
	tb := fig8BW([]string{"A", "B", "C", "D"}, results, []string{"mix", "MORC"})
	want := []struct {
		label string
		value float64
	}{{"A", 25}, {"B", 0}, {"C", 0}, {"D", 10}, {"Mean", 17.5}}
	if len(tb.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tb.Rows), len(want))
	}
	for i, w := range want {
		if r := tb.Rows[i]; r.Label != w.label || len(r.Values) != 1 || math.Abs(r.Values[0]-w.value) > 1e-9 {
			t.Errorf("row %d: %s %v, want %s %v", i, r.Label, r.Values, w.label, w.value)
		}
	}
	if !strings.HasSuffix(tb.Note, "left out: B, C") {
		t.Errorf("note %q does not name the left-out mixes", tb.Note)
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	if !strings.Contains(buf.String(), tb.Note) {
		t.Errorf("Render does not print the note:\n%s", buf.String())
	}
	all := fig8BW([]string{"A"}, results[:1], []string{"mix", "MORC"})
	if !strings.HasSuffix(all.Note, "left out: none") {
		t.Errorf("note %q with every mix averaged", all.Note)
	}
}
