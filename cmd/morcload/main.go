// Command morcload is a wrk-style load generator for morcd and the
// cluster coordinator: it drives sustained concurrent job submissions
// (optionally each with a live SSE subscription), and reports
// throughput, error counts, and submit/end-to-end latency percentiles.
//
// Drive a running server (single morcd or coordinator — same API):
//
//	morcload -server http://localhost:8070 -jobs 2000 -concurrency 64 -sse
//
// Self-contained topology benchmark — no processes to set up; starts
// an in-process single worker, a 1-peer cluster, and a 2-peer cluster,
// runs the identical load against each, and writes the comparison to
// BENCH_cluster.json:
//
//	morcload -bench -jobs 40 -concurrency 8 -out BENCH_cluster.json
//
// Simulation jobs are CPU-bound, so cluster speedup tracks the CPUs
// backing the peers; the report records num_cpu so a single-machine
// measurement reads honestly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"morc/internal/bench"
	"morc/internal/cluster"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

func main() {
	var (
		serverURL = flag.String("server", "", "base URL of a running morcd or coordinator to drive")
		jobs      = flag.Int("jobs", 200, "total jobs to submit")
		conc      = flag.Int("concurrency", 16, "concurrent in-flight submissions")
		sse       = flag.Bool("sse", false, "subscribe to each job's SSE stream and drain it")
		workload  = flag.String("workload", "gcc", "workload each job simulates")
		scheme    = flag.String("scheme", "MORC", "LLC scheme each job simulates")
		warmup    = flag.Uint64("warmup", 10_000, "per-job warmup instructions")
		measure   = flag.Uint64("measure", 50_000, "per-job measured instructions")
		benchMode = flag.Bool("bench", false, "run the in-process 1-peer vs 2-peer topology comparison")
		workers   = flag.Int("workers-per-peer", 1, "simulation workers per in-process peer (-bench)")
		out       = flag.String("out", "", "write a morc-bench report to this file (default BENCH_cluster.json with -bench)")
		phases    = flag.Bool("phases", false, "fetch each completed job's trace and print a per-phase latency breakdown")
	)
	flag.Parse()

	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "morcload:", err)
		os.Exit(1)
	}
	spec := server.JobSpec{
		Workload: *workload,
		Scheme:   sch,
		Config: []byte(fmt.Sprintf(`{"WarmupInstr": %d, "MeasureInstr": %d}`,
			*warmup, *measure)),
	}
	load := loadConfig{Jobs: *jobs, Concurrency: *conc, SSE: *sse, Spec: spec}

	switch {
	case *benchMode:
		path := *out
		if path == "" {
			path = "BENCH_cluster.json"
		}
		if err := runTopologyBench(load, *workers, path); err != nil {
			fmt.Fprintln(os.Stderr, "morcload:", err)
			os.Exit(1)
		}
	case *serverURL != "":
		stats, err := runLoad(context.Background(), *serverURL, load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "morcload:", err)
			os.Exit(1)
		}
		stats.print(os.Stdout, *serverURL)
		if *phases {
			printPhaseBreakdown(context.Background(), os.Stdout, *serverURL, stats.IDs)
		}
		if *out != "" {
			rep := bench.New("morcload", runtime.NumCPU())
			rep.Add(stats.entry("load", load, *workers))
			if err := rep.WriteFile(*out); err != nil {
				fmt.Fprintln(os.Stderr, "morcload:", err)
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "morcload: need -server URL or -bench (see -h)")
		os.Exit(1)
	}
}

// loadConfig is one load shape: how many jobs, how hard, what spec.
type loadConfig struct {
	Jobs        int
	Concurrency int
	SSE         bool
	Spec        server.JobSpec
}

// loadStats aggregates one load run.
type loadStats struct {
	Completed int
	Errors    int
	Wall      time.Duration
	SubmitLat []time.Duration // time to the 202, per job
	E2ELat    []time.Duration // submit to terminal state, per job
	IDs       []string        // completed job ids, for trace fetches
}

// runLoad fires cfg.Jobs submissions at baseURL, cfg.Concurrency at a
// time, waiting each to a terminal state (and draining its SSE stream
// when cfg.SSE is set).
func runLoad(ctx context.Context, baseURL string, cfg loadConfig) (*loadStats, error) {
	if cfg.Jobs <= 0 || cfg.Concurrency <= 0 {
		return nil, errors.New("jobs and concurrency must be positive")
	}
	stats := &loadStats{
		SubmitLat: make([]time.Duration, 0, cfg.Jobs),
		E2ELat:    make([]time.Duration, 0, cfg.Jobs),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Concurrency)
	start := time.Now()

	for i := 0; i < cfg.Jobs; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// One client per job: each holds its own retry state, and the
			// submit path sees the same shape a real client fleet produces.
			cl := client.New(baseURL)
			t0 := time.Now()
			v, err := cl.Submit(ctx, cfg.Spec)
			submitLat := time.Since(t0)
			if err != nil {
				mu.Lock()
				stats.Errors++
				mu.Unlock()
				return
			}
			var sseWG sync.WaitGroup
			if cfg.SSE {
				sseWG.Add(1)
				go func() {
					defer sseWG.Done()
					body, err := cl.Events(ctx, v.ID)
					if err != nil {
						return
					}
					defer body.Close()
					io.Copy(io.Discard, body)
				}()
			}
			final, err := cl.Wait(ctx, v.ID)
			e2e := time.Since(t0)
			sseWG.Wait()
			mu.Lock()
			defer mu.Unlock()
			if err != nil || final.Status != server.StatusDone {
				stats.Errors++
				return
			}
			stats.Completed++
			stats.SubmitLat = append(stats.SubmitLat, submitLat)
			stats.E2ELat = append(stats.E2ELat, e2e)
			stats.IDs = append(stats.IDs, v.ID)
		}()
	}
	wg.Wait()
	stats.Wall = time.Since(start)
	return stats, nil
}

// throughput is completed jobs per second of wall time.
func (s *loadStats) throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Wall.Seconds()
}

// percentile returns the p-th percentile (0–100) of lats in
// milliseconds, by nearest-rank on a sorted copy.
func percentile(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p / 100 * float64(len(sorted)-1))
	return float64(sorted[rank].Microseconds()) / 1000
}

func (s *loadStats) print(w io.Writer, target string) {
	fmt.Fprintf(w, "target      %s\n", target)
	fmt.Fprintf(w, "completed   %d (%d errors) in %v\n", s.Completed, s.Errors, s.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput  %.2f jobs/s\n", s.throughput())
	fmt.Fprintf(w, "submit ms   p50 %.2f  p90 %.2f  p99 %.2f\n",
		percentile(s.SubmitLat, 50), percentile(s.SubmitLat, 90), percentile(s.SubmitLat, 99))
	fmt.Fprintf(w, "e2e ms      p50 %.2f  p90 %.2f  p99 %.2f\n",
		percentile(s.E2ELat, 50), percentile(s.E2ELat, 90), percentile(s.E2ELat, 99))
}

// printPhaseBreakdown fetches each completed job's trace and prints
// per-phase latency percentiles, keyed service:span (coordinator queue
// wait, peer queue wait, the run itself, every sim phase). The traces
// were recorded anyway — this just reads them back, so the breakdown
// adds no load-path overhead.
func printPhaseBreakdown(ctx context.Context, w io.Writer, baseURL string, ids []string) {
	cl := client.New(baseURL)
	byPhase := map[string][]time.Duration{}
	fetched, failed := 0, 0
	for _, id := range ids {
		te, err := cl.Trace(ctx, id)
		if err != nil {
			failed++
			continue
		}
		fetched++
		for _, sp := range te.Spans {
			if sp.End == 0 {
				continue // open span (should not happen for a done job)
			}
			key := sp.Service + ":" + sp.Name
			byPhase[key] = append(byPhase[key], time.Duration(sp.End-sp.Start))
		}
	}
	keys := make([]string, 0, len(byPhase))
	for k := range byPhase {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "\nphase breakdown (%d traces", fetched)
	if failed > 0 {
		fmt.Fprintf(w, ", %d fetch errors", failed)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "%-28s %7s %10s %10s %10s\n", "span", "count", "p50 ms", "p90 ms", "p99 ms")
	for _, k := range keys {
		lats := byPhase[k]
		fmt.Fprintf(w, "%-28s %7d %10.2f %10.2f %10.2f\n", k, len(lats),
			percentile(lats, 50), percentile(lats, 90), percentile(lats, 99))
	}
}

// entry renders the run as one morc-bench report entry.
func (s *loadStats) entry(name string, cfg loadConfig, workersPerPeer int) bench.Entry {
	return bench.Entry{
		Name: name,
		Config: map[string]any{
			"jobs":             cfg.Jobs,
			"concurrency":      cfg.Concurrency,
			"sse":              cfg.SSE,
			"workload":         cfg.Spec.Workload,
			"scheme":           cfg.Spec.Scheme.String(),
			"workers_per_peer": workersPerPeer,
		},
		Metrics: map[string]float64{
			"throughput_jobs_per_sec": s.throughput(),
			"completed":               float64(s.Completed),
			"errors":                  float64(s.Errors),
			"submit_p50_ms":           percentile(s.SubmitLat, 50),
			"submit_p99_ms":           percentile(s.SubmitLat, 99),
			"e2e_p50_ms":              percentile(s.E2ELat, 50),
			"e2e_p90_ms":              percentile(s.E2ELat, 90),
			"e2e_p99_ms":              percentile(s.E2ELat, 99),
		},
	}
}

// serveHTTP exposes handler on a loopback listener and returns its base
// URL and a stop function.
func serveHTTP(handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// topology is one benchmarked deployment shape.
type topology struct {
	name  string
	peers int // 0 = direct single morcd, no coordinator
}

// runTopology stands the topology up in-process, drives the load, and
// tears everything down.
func runTopology(tp topology, cfg loadConfig, workersPerPeer int) (*loadStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()

	newWorker := func() (string, error) {
		srv := server.New(server.Config{Workers: workersPerPeer, QueueDepth: cfg.Jobs + 16, Logger: quiet})
		url, stop, err := serveHTTP(srv.Handler())
		if err != nil {
			return "", err
		}
		stops = append(stops, func() {
			stop()
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
		})
		return url, nil
	}

	var target string
	if tp.peers == 0 {
		url, err := newWorker()
		if err != nil {
			return nil, err
		}
		target = url
	} else {
		peerURLs := make([]string, 0, tp.peers)
		for i := 0; i < tp.peers; i++ {
			url, err := newWorker()
			if err != nil {
				return nil, err
			}
			peerURLs = append(peerURLs, url)
		}
		coord := cluster.New(cluster.Config{
			Peers:        peerURLs,
			QueueDepth:   cfg.Jobs + 16,
			SlotsPerPeer: workersPerPeer * 2,
			Logger:       quiet,
		})
		url, stop, err := serveHTTP(coord.Handler())
		if err != nil {
			return nil, err
		}
		stops = append(stops, func() {
			stop()
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			coord.Shutdown(sctx)
		})
		target = url
	}
	return runLoad(ctx, target, cfg)
}

// runTopologyBench compares direct, 1-peer, and 2-peer deployments
// under the identical load and writes the morc-bench report.
func runTopologyBench(cfg loadConfig, workersPerPeer int, outPath string) error {
	topologies := []topology{
		{name: "direct", peers: 0},
		{name: "cluster-1peer", peers: 1},
		{name: "cluster-2peer", peers: 2},
	}
	rep := bench.New("cluster-throughput", runtime.NumCPU())
	rep.Note = "Simulation jobs are CPU-bound, so cluster throughput scales with the CPUs " +
		"backing the peers, not the peer count. On a single-CPU host the peers time-slice " +
		"one core and the 2-peer/1-peer ratio measures pure coordination overhead; re-run " +
		"`morcload -bench` with peers on separate machines (or a multi-core host) to " +
		"measure real scaling. Results are byte-identical across topologies either way " +
		"(see internal/check)."

	var oneT, twoT float64
	for _, tp := range topologies {
		fmt.Fprintf(os.Stderr, "morcload: running %s (%d jobs, concurrency %d)...\n",
			tp.name, cfg.Jobs, cfg.Concurrency)
		stats, err := runTopology(tp, cfg, workersPerPeer)
		if err != nil {
			return fmt.Errorf("%s: %w", tp.name, err)
		}
		if stats.Errors > 0 {
			return fmt.Errorf("%s: %d jobs failed", tp.name, stats.Errors)
		}
		stats.print(os.Stdout, tp.name)
		fmt.Fprintln(os.Stdout)
		rep.Add(stats.entry(tp.name, cfg, workersPerPeer))
		switch tp.name {
		case "cluster-1peer":
			oneT = stats.throughput()
		case "cluster-2peer":
			twoT = stats.throughput()
		}
	}
	if oneT > 0 {
		e := &rep.Entries[len(rep.Entries)-1]
		if e.Metrics == nil {
			e.Metrics = map[string]float64{}
		}
		e.Metrics["speedup_vs_1peer"] = twoT / oneT
		fmt.Fprintf(os.Stdout, "2-peer vs 1-peer throughput: %.2fx (num_cpu %d)\n",
			twoT/oneT, runtime.NumCPU())
	}
	if err := rep.WriteFile(outPath); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "morcload: wrote %s\n", outPath)
	return nil
}
