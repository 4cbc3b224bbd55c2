// Command morcsim runs a single simulation: one workload (or one Table 6
// mix) against one LLC organization, printing the headline metrics.
//
// Usage:
//
//	morcsim -workload gcc -scheme MORC
//	morcsim -mix M0 -scheme SC2 -bw 1600e6
//	morcsim -workload astar -scheme MORC -logsize 1024 -activelogs 16
//	morcsim -workload gcc -scheme MORC -json   # same Result JSON as morcd
//	morcsim -workload gcc -scheme MORC -telemetry ts.ndjson -epoch 100000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"morc/internal/core"
	"morc/internal/sim"
	tel "morc/internal/telemetry"
)

// schemeNames is the -scheme help text, generated from the canonical
// list so it can never drift from what the simulator implements.
func schemeNames() string {
	var names []string
	for _, sch := range sim.AllSchemes() {
		names = append(names, sch.String())
	}
	return strings.Join(names, "|")
}

func main() {
	var (
		workload   = flag.String("workload", "gcc", "single-program workload name (see morctrace -list)")
		mix        = flag.String("mix", "", "Table 6 mix name (M0-M3, S0-S7); overrides -workload")
		scheme     = flag.String("scheme", "MORC", schemeNames())
		bw         = flag.Float64("bw", 100e6, "off-chip bandwidth per core (bytes/sec)")
		llcKB      = flag.Int("llc", 128, "LLC capacity per core (KB)")
		warmup     = flag.Uint64("warmup", 1_500_000, "warmup instructions per core")
		measure    = flag.Uint64("measure", 2_000_000, "measured instructions per core")
		logSize    = flag.Int("logsize", 0, "MORC log size override (bytes)")
		activeLogs = flag.Int("activelogs", 0, "MORC active log count override: 1 to 64, and fewer than the LLC's logs")
		inclusive  = flag.Bool("inclusive", false, "insert fetched lines on store misses too")
		jsonOut    = flag.Bool("json", false, "emit the Result as JSON (the same encoding morcd serves)")
		telemetry  = flag.String("telemetry", "", "write the per-epoch time series as NDJSON to this file (- for stdout)")
		epoch      = flag.Uint64("epoch", tel.DefaultEvery, "telemetry epoch length in instructions (with -telemetry)")
	)
	flag.Parse()

	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "morcsim:", err)
		os.Exit(1)
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = sch
	cfg.BWPerCore = *bw
	cfg.LLCBytesPerCore = *llcKB << 10
	cfg.WarmupInstr = *warmup
	cfg.MeasureInstr = *measure
	cfg.Inclusive = *inclusive
	if *telemetry != "" {
		cfg.Telemetry = tel.Config{Every: *epoch}
	}
	if *logSize > 0 || *activeLogs > 0 {
		mc := core.DefaultConfig(cfg.LLCBytesPerCore)
		if *logSize > 0 {
			mc.LogBytes = *logSize
		}
		if *activeLogs > 0 {
			mc.ActiveLogs = *activeLogs
		}
		cfg.MORCConfig = &mc
		if err := cfg.EffectiveMORCConfig().Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "morcsim:", err)
			os.Exit(1)
		}
	}

	var res sim.Result
	label := *workload
	if *mix != "" {
		label = "mix " + *mix
		res, err = sim.RunMixCtx(context.Background(), *mix, cfg)
	} else {
		res, err = sim.RunSingleCtx(context.Background(), *workload, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "morcsim:", err)
		os.Exit(1)
	}

	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, res.Telemetry); err != nil {
			fmt.Fprintln(os.Stderr, "morcsim:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "morcsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s on %s (%dKB/core LLC, %.3g MB/s per core)\n",
		label, sch, *llcKB, *bw/1e6)
	fmt.Printf("  compression ratio      %.2fx\n", res.CompRatio)
	fmt.Printf("  LLC hit rate           %.1f%%\n", 100*res.LLCStats.HitRate())
	fmt.Printf("  off-chip traffic       %.3f GB per 1B instructions\n", res.GBPerBillionInstr)
	fmt.Printf("  IPC (gmean)            %.4f\n", res.IPC)
	fmt.Printf("  CGMT throughput        %.4f\n", res.Throughput)
	fmt.Printf("  completion cycles      %d\n", res.CompletionCycles)
	fmt.Printf("  memory-system energy   %.3f mJ\n", res.Energy.Total()*1e3)
	fmt.Printf("    static %.3f / DRAM %.3f / SRAM %.3f / comp %.3f / decomp %.3f mJ\n",
		(res.Energy.StaticJ+res.Energy.DRAMStaticJ)*1e3, res.Energy.DRAMJ*1e3,
		res.Energy.SRAMJ*1e3, res.Energy.CompressJ*1e3, res.Energy.DecompressJ*1e3)
	if res.Telemetry != nil {
		fmt.Printf("  telemetry              %d epochs every %d instructions -> %s\n",
			len(res.Telemetry.Epochs), res.Telemetry.Every, *telemetry)
	}
}

// writeTelemetry dumps the run's epoch series as NDJSON.
func writeTelemetry(path string, ts *tel.Series) error {
	if ts == nil {
		return fmt.Errorf("run recorded no telemetry")
	}
	if path == "-" {
		return ts.WriteNDJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
