// Package server exposes the simulator as an HTTP job service ("morcd"):
// jobs are submitted as JSON specs onto a bounded queue, drained by a
// fixed worker pool, and can be polled, cancelled, and observed through
// Prometheus-style metrics. cmd/morcd is the CLI front-end; package
// client is the typed Go client.
//
// API:
//
//	POST   /v1/jobs                  submit a JobSpec  → 202 JobView (429 when the queue is full)
//	GET    /v1/jobs                  list all jobs     → {"jobs": [JobView...]}
//	GET    /v1/jobs/{id}             job status/result → JobView (?wait=5s long-polls: answers when the job ends or the window passes)
//	DELETE /v1/jobs/{id}             cancel            → JobView
//	GET    /v1/jobs/{id}/events      SSE stream: epoch/progress/done events
//	GET    /v1/jobs/{id}/timeseries  telemetry series (JSON, ?format=ndjson)
//	GET    /v1/jobs/{id}/trace       span trace export (JSON, ?format=ndjson)
//	GET    /v1/schemes               LLC organizations the simulator implements
//	GET    /v1/workloads             workloads, mixes, and experiments that can run
//	GET    /v1/status                queue/worker/counter snapshot (cluster overview scrapes this)
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/pprof/             CPU/heap/goroutine profiles, execution traces
//	GET    /debug/vars               expvar (build info, uptime, memstats)
//	GET    /healthz                  liveness
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"morc/internal/exp"
	"morc/internal/obs"
	"morc/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64). Submissions beyond it are rejected with ErrQueueFull
	// so callers see backpressure instead of unbounded memory growth.
	QueueDepth int
	// Logger receives structured request and job-lifecycle logs
	// (default: discard, so embedding the server in tests stays quiet;
	// cmd/morcd passes a real handler).
	Logger *slog.Logger
	// ProgressInterval is the cadence of "progress" events on the SSE
	// stream (default 250ms).
	ProgressInterval time.Duration
}

// Submission and lookup errors.
var (
	ErrQueueFull    = errors.New("job queue is full")
	ErrShuttingDown = errors.New("server is shutting down")
	ErrNoSuchJob    = errors.New("no such job")
)

// Server owns the job table, the bounded queue, and the worker pool.
type Server struct {
	workers       int
	queue         chan *Job
	metrics       *metrics
	log           *slog.Logger
	progressEvery time.Duration
	baseCtx       context.Context
	stopAll       context.CancelFunc
	wg            sync.WaitGroup

	// Tracing: every job gets a span tree in spans, exportable via
	// GET /v1/jobs/{id}/trace; the table opens it at admission.
	spans *obs.Store
	table *Table[*Job]

	// Rate limit for the SSE-drop warning log (counters still see every
	// drop; only the log line is limited).
	dropMu   sync.Mutex
	lastDrop time.Time
}

// sseDropWarnEvery is the minimum gap between SSE-drop warning logs.
const sseDropWarnEvery = 5 * time.Second

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	spans := obs.NewStore(0, 0)
	s := &Server{
		workers:       cfg.Workers,
		queue:         make(chan *Job, cfg.QueueDepth),
		metrics:       newMetrics(),
		log:           cfg.Logger,
		progressEvery: cfg.ProgressInterval,
		baseCtx:       ctx,
		stopAll:       cancel,
		spans:         spans,
	}
	s.table = NewTable("j", obs.NewTracer("morcd", spans),
		func(id string, spec JobSpec, span, queueSp *obs.ActiveSpan) *Job {
			return newJob(id, spec, span, queueSp, s.noteSSEDrops)
		},
		func(j *Job) bool {
			select {
			case s.queue <- j:
				return true
			default:
				return false
			}
		})
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates the spec and enqueues a job, returning it immediately.
// The job gets a fresh trace rooted at its own span.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitTraced(spec, obs.SpanContext{}, false)
}

// SubmitTraced is Submit with trace propagation; see Table.Admit.
func (s *Server) SubmitTraced(spec JobSpec, parent obs.SpanContext, synthesizeClient bool) (*Job, error) {
	job, err := s.table.Admit(spec, parent, synthesizeClient)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.jobRejected()
	case err == nil:
		s.metrics.jobSubmitted()
		s.log.Info("job queued", "job", job.ID, "kind", schemeLabel(spec),
			"workload", spec.Workload, "mix", spec.Mix, "telemetry", spec.Telemetry,
			"trace", job.TraceID().String())
	}
	return job, err
}

// Trace exports the job's span tree. ok is false for unknown jobs and
// for traces already evicted from the bounded store.
func (s *Server) Trace(id string) (obs.TraceExport, bool) {
	j, ok := s.Job(id)
	if !ok || j.TraceID().IsZero() {
		return obs.TraceExport{}, false
	}
	return s.spans.Export(j.TraceID())
}

// noteSSEDrops is each job's onDrop callback: it counts evicted SSE
// frames and emits a rate-limited warning log.
func (s *Server) noteSSEDrops(n int) {
	s.metrics.sseDroppedFrames(n)
	s.dropMu.Lock()
	now := time.Now()
	warn := now.Sub(s.lastDrop) >= sseDropWarnEvery
	if warn {
		s.lastDrop = now
	}
	s.dropMu.Unlock()
	if warn {
		s.log.Warn("SSE subscribers falling behind; dropping telemetry frames",
			"dropped", n, "warn_every", sseDropWarnEvery)
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) { return s.table.Job(id) }

// Jobs returns all jobs in submission order.
func (s *Server) Jobs() []*Job { return s.table.Jobs() }

// Cancel requests cancellation of a job. The bool reports whether the
// job existed; already-terminal jobs are left untouched.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	j.requestCancel(s.metrics)
	return j, true
}

// QueueDepth is the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int { return len(s.queue) }

// Workers is the worker-pool size.
func (s *Server) Workers() int { return s.workers }

// worker drains the queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job start-to-finish, recording metrics.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	queueWait, ok := j.start(cancel)
	if !ok {
		return // cancelled while queued; Cancel already counted it
	}
	s.metrics.spanObserved("queue", queueWait)
	s.metrics.workerBusy(1)
	defer s.metrics.workerBusy(-1)
	s.log.Info("job started", "job", j.ID, "kind", schemeLabel(j.Spec))

	st, res, tables, errMsg := s.execute(ctx, j)
	j.finish(st, res, tables, errMsg, s.metrics)
	s.log.Info("job finished", "job", j.ID, "status", string(st),
		"duration_sec", j.View().DurationSec, "error", errMsg)
}

// execute runs the spec under ctx and maps the outcome to a terminal
// state: ctx's cancellation is cancelled, an error or a panic failed.
// Panics in the simulator are contained as job failures so one bad
// configuration cannot take down the server; an experiment's runner
// returns the panics of the runs it spreads over goroutines as errors.
func (s *Server) execute(ctx context.Context, j *Job) (st Status, res *sim.Result, tables []*exp.Table, errMsg string) {
	defer func() {
		if r := recover(); r != nil {
			st, res, tables, errMsg = StatusFailed, nil, nil, fmt.Sprint(r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return StatusCancelled, nil, nil, ""
	}
	sp := j.Spec
	var err error
	if sp.Experiment != "" {
		e, _ := exp.Get(sp.Experiment)
		tables, err = e.Run(ctx, sp.budget())
	} else {
		res, err = s.simulate(ctx, j)
	}
	switch {
	case errors.Is(err, context.Canceled):
		return StatusCancelled, nil, nil, ""
	case err != nil:
		return StatusFailed, nil, nil, err.Error()
	}
	return StatusDone, res, tables, ""
}

// simulate runs a workload or mix job's system under ctx, reporting its
// progress, phases and telemetry epochs to j.
func (s *Server) simulate(ctx context.Context, j *Job) (*sim.Result, error) {
	sp := j.Spec
	cfg, err := sp.simConfig()
	if err != nil {
		return nil, err
	}
	var sys *sim.System
	if sp.Mix != "" {
		sys, err = sim.NewMix(sp.Mix, cfg)
	} else {
		sys, err = sim.NewSingle(sp.Workload, cfg)
	}
	if err != nil {
		return nil, err
	}
	sys.OnProgress = j.setProgress
	sys.OnPhase = j.notePhase
	if cfg.Telemetry.Enabled() {
		sys.OnEpoch = j.publishEpoch
	}
	r, err := sys.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// Shutdown stops accepting jobs and drains the queue and in-flight work.
// If ctx expires first, all still-running jobs are cancelled and the
// pool is waited for (cancellation takes effect within a few thousand
// simulated accesses), then ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	// Once the table is closed no submission can send on the queue, so
	// closing it cannot race a send.
	if s.table.Close() {
		close(s.queue)
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.stopAll()
		<-drained
		return ctx.Err()
	}
}
