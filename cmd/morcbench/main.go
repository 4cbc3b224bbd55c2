// Command morcbench regenerates the MORC paper's tables and figures.
//
// Usage:
//
//	morcbench -exp fig6            # one experiment
//	morcbench -exp all -quick      # everything, calibration budget
//	morcbench -exp fig2,fig7 -workloads gcc,bzip2
//	morcbench -exp fig6 -schemes Uncompressed,MORC
//	morcbench -exp fig6 -json      # machine-readable tables (morcd's encoding)
//	morcbench -list                # show experiment ids
//
// Output is aligned text tables, one per figure panel, written to stdout
// (or -out FILE). See EXPERIMENTS.md for paper-vs-measured notes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"morc/internal/exp"
	"morc/internal/sim"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick     = flag.Bool("quick", false, "use the fast calibration budget")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: each experiment's paper set)")
		schemes   = flag.String("schemes", "", "comma-separated scheme subset (default: each experiment's paper set)")
		out       = flag.String("out", "", "write output to this file instead of stdout")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut   = flag.Bool("json", false, "emit one JSON array of tables (the same encoding morcd serves)")
		warmup    = flag.Uint64("warmup", 0, "override warmup instructions per core")
		measure   = flag.Uint64("measure", 0, "override measured instructions per core")
	)
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			e, _ := exp.Get(id)
			fmt.Printf("%-8s %s\n", id, e.Title)
		}
		return
	}

	budget := exp.Full()
	if *quick {
		budget = exp.Quick()
	}
	if *warmup > 0 {
		budget.Warmup = *warmup
	}
	if *measure > 0 {
		budget.Measure = *measure
	}
	if *workloads != "" {
		budget.Workloads = strings.Split(*workloads, ",")
	}
	if *schemes != "" {
		for _, name := range strings.Split(*schemes, ",") {
			sch, err := sim.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "morcbench:", err)
				os.Exit(1)
			}
			budget.Schemes = append(budget.Schemes, sch)
		}
	}

	var ids []string
	if *expFlag == "all" {
		ids = exp.IDs()
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "morcbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var jsonTables []*exp.Table
	for _, id := range ids {
		e, ok := exp.Get(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "morcbench: unknown experiment %q (use -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s: %s...\n", e.ID, e.Title)
		tables, err := e.Run(context.Background(), budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "morcbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			switch {
			case *jsonOut:
				jsonTables = append(jsonTables, t)
			case *csv:
				fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title)
				if err := t.WriteCSV(w); err != nil {
					fmt.Fprintln(os.Stderr, "morcbench:", err)
					os.Exit(1)
				}
				fmt.Fprintln(w)
			default:
				t.Render(w)
			}
		}
		fmt.Fprintf(os.Stderr, "  %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		if err := exp.WriteTablesJSON(w, jsonTables); err != nil {
			fmt.Fprintln(os.Stderr, "morcbench:", err)
			os.Exit(1)
		}
	}
}
