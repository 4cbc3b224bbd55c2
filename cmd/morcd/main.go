// Command morcd serves the simulator as an HTTP job service, and doubles
// as a client for submitting work to a running instance.
//
// Serve (default):
//
//	morcd -addr :8077 -workers 8 -queue 64 -drain 30s
//
// Cluster mode — one coordinator shards jobs across worker morcds:
//
//	morcd -coordinator -addr :8070 -peers http://localhost:8071,http://localhost:8072
//	morcd -addr :8071 -join http://localhost:8070 -advertise http://localhost:8071
//
// The coordinator serves the same /v1/jobs API as a single morcd, plus
// /v1/cluster/{join,peers,jobs/{id}} for membership and placement.
// Workers started with -join announce themselves to the coordinator and
// keep re-announcing, so a restarted coordinator re-learns its peers.
//
// Submit and wait for a job from the CLI:
//
//	morcd -submit -server http://localhost:8077 -workload gcc -scheme MORC -wait
//	morcd -submit -server http://localhost:8077 -mix M0 -scheme SC2 -budget full
//	morcd -submit -server http://localhost:8077 -workload gcc -telemetry 10000000 -wait
//	morcd -submit -server http://localhost:8077 -exp fig6 -wait
//	morcd -submit -server http://localhost:8077 -cancel j000001
//	morcd -submit -server http://localhost:8077 -trace j000001
//
// Submissions from the CLI carry a W3C traceparent, so the exported
// trace (GET /v1/jobs/{id}/trace, or -trace above) starts at the client
// submit and descends through queue wait, the run, and every simulation
// phase — across the coordinator hop in cluster mode.
//
// A serving instance also exposes runtime introspection: /debug/pprof/
// for profiles, /debug/vars for expvar, /metrics for Prometheus, and
// per-job SSE streams on /v1/jobs/{id}/events.
//
// The serve mode shuts down gracefully on SIGINT/SIGTERM: the listener
// stops, queued and in-flight jobs drain for up to -drain, then anything
// still running is cancelled.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"morc/internal/cluster"
	"morc/internal/server"
	"morc/internal/server/client"
	"morc/internal/sim"
)

func main() {
	var (
		// serve flags
		addr    = flag.String("addr", ":8077", "listen address")
		workers = flag.Int("workers", 0, "worker pool size (default NumCPU)")
		queue   = flag.Int("queue", 64, "bounded queue depth")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")

		// cluster flags
		coordinator = flag.Bool("coordinator", false, "serve as a cluster coordinator instead of running simulations")
		peers       = flag.String("peers", "", "comma-separated worker base URLs (coordinator mode)")
		join        = flag.String("join", "", "coordinator base URL to announce this worker to")
		advertise   = flag.String("advertise", "", "base URL the coordinator should reach this worker at (with -join)")

		// submit-mode flags
		submit    = flag.Bool("submit", false, "submit a job to a running morcd instead of serving")
		serverURL = flag.String("server", "http://localhost:8077", "morcd base URL (submit mode)")
		workload  = flag.String("workload", "", "single-program workload to submit")
		mix       = flag.String("mix", "", "Table 6 mix to submit")
		expID     = flag.String("exp", "", "experiment id to submit (see morcbench -list)")
		scheme    = flag.String("scheme", "MORC", "LLC scheme for workload/mix jobs")
		budget    = flag.String("budget", "quick", "simulation budget: quick|full")
		epoch     = flag.Uint64("telemetry", 0, "record a telemetry epoch every N instructions (0 = off)")
		wait      = flag.Bool("wait", false, "long-poll until the job finishes and print the final view")
		cancelID  = flag.String("cancel", "", "cancel the given job id instead of submitting")
		traceID   = flag.String("trace", "", "print the given job's trace instead of submitting")
	)
	flag.Parse()

	if *submit || *cancelID != "" || *traceID != "" {
		if err := runClient(*serverURL, *workload, *mix, *expID, *scheme, *budget, *cancelID, *traceID, *epoch, *wait); err != nil {
			fmt.Fprintln(os.Stderr, "morcd:", err)
			os.Exit(1)
		}
		return
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *coordinator {
		runCoordinator(logger, *addr, *peers, *drain)
		return
	}

	srv := server.New(server.Config{Workers: *workers, QueueDepth: *queue, Logger: logger})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "morcd: serving on %s (%d workers, queue %d)\n",
		*addr, srv.Workers(), *queue)

	announceCtx, stopAnnounce := context.WithCancel(context.Background())
	defer stopAnnounce()
	if *join != "" {
		go announce(announceCtx, logger, *join, *advertise, *addr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "morcd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "morcd: %v, draining for up to %v...\n", sig, *drain)
	}
	stopAnnounce()

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "morcd: drain deadline hit; cancelled remaining jobs")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "morcd: all jobs drained")
}

// runCoordinator serves the cluster coordinator until SIGINT/SIGTERM.
func runCoordinator(logger *slog.Logger, addr, peerList string, drain time.Duration) {
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimSuffix(p, "/"))
		}
	}
	coord := cluster.New(cluster.Config{Peers: peers, Logger: logger})
	httpSrv := &http.Server{Addr: addr, Handler: coord.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "morcd: coordinating on %s (%d seed peers)\n", addr, len(peers))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "morcd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "morcd: %v, draining for up to %v...\n", sig, drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := coord.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "morcd: drain deadline hit; outstanding cluster jobs abandoned")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "morcd: all cluster jobs drained")
}

// announce registers this worker with a coordinator and keeps
// re-registering every 10s — join is idempotent, and the steady
// re-announce means a restarted coordinator re-learns the cluster
// without any operator action.
func announce(ctx context.Context, logger *slog.Logger, coordURL, advertiseURL, addr string) {
	self := advertiseURL
	if self == "" {
		// Best effort: an addr like ":8077" only works if the coordinator
		// runs on the same host.
		self = "http://localhost" + addr
		if !strings.HasPrefix(addr, ":") {
			self = "http://" + addr
		}
	}
	cl := client.New(strings.TrimSuffix(coordURL, "/"))
	joined := false
	for {
		err := func() error {
			jctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			return cl.Join(jctx, self)
		}()
		switch {
		case err != nil:
			logger.Warn("cluster join failed", "coordinator", coordURL, "error", err)
			joined = false
		case !joined:
			logger.Info("joined cluster", "coordinator", coordURL, "advertise", self)
			joined = true
		}
		select {
		case <-time.After(10 * time.Second):
		case <-ctx.Done():
			return
		}
	}
}

// runClient implements -submit / -cancel / -trace against a running
// server.
func runClient(baseURL, workload, mix, expID, scheme, budget, cancelID, traceID string, epoch uint64, wait bool) error {
	c := client.New(baseURL)
	ctx := context.Background()

	if cancelID != "" {
		v, err := c.Cancel(ctx, cancelID)
		if err != nil {
			return err
		}
		return printJSON(v)
	}
	if traceID != "" {
		te, err := c.Trace(ctx, traceID)
		if err != nil {
			return err
		}
		return printJSON(te)
	}

	spec := server.JobSpec{Workload: workload, Mix: mix, Experiment: expID, Budget: budget, Telemetry: epoch}
	if workload != "" || mix != "" {
		sch, err := sim.ParseScheme(scheme)
		if err != nil {
			return err
		}
		spec.Scheme = sch
	}
	// SubmitTraced roots the trace at this CLI invocation: the server
	// synthesizes a client.submit span above its own job span.
	v, _, err := c.SubmitTraced(ctx, spec)
	if err != nil {
		return err
	}
	if !wait {
		return printJSON(v)
	}
	v, err = c.Wait(ctx, v.ID)
	if err != nil {
		return err
	}
	return printJSON(v)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
