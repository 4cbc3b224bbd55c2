package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"morc/internal/exp"
	"morc/internal/obs"
	"morc/internal/sim"
	"morc/internal/telemetry"
	"morc/internal/trace"
)

// Status is a job's lifecycle state. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled              (cancelled before a worker picked it up)
//
// Terminal states are done, failed, and cancelled; a terminal job never
// changes again.
type Status string

// Job lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobSpec describes one unit of work: exactly one of Workload (a
// single-program run), Mix (a Table 6 multi-program run), or Experiment
// (a whole figure/table reproduction) must be set.
type JobSpec struct {
	Workload   string `json:"workload,omitempty"`
	Mix        string `json:"mix,omitempty"`
	Experiment string `json:"experiment,omitempty"`

	// Scheme selects the LLC organization for workload/mix jobs
	// (default Uncompressed; experiments run their paper scheme sets,
	// optionally restricted by Schemes).
	Scheme sim.Scheme `json:"scheme"`

	// Budget selects the simulation window: "quick" (default) or "full",
	// mirroring morcbench. A workload or mix job can fine-tune
	// warmup/measure via Config.
	Budget string `json:"budget,omitempty"`

	// Workloads/Schemes restrict experiment jobs, like morcbench's
	// -workloads and -schemes flags.
	Workloads []string     `json:"workloads,omitempty"`
	Schemes   []sim.Scheme `json:"schemes,omitempty"`

	// Telemetry, when non-zero, enables per-epoch telemetry for
	// workload/mix jobs with the given epoch interval in instructions
	// (telemetry.DefaultEvery is the paper's 10M grid). Epochs stream
	// live on GET /v1/jobs/{id}/events and the full series lands on the
	// result (and GET /v1/jobs/{id}/timeseries). Off by default so job
	// results stay byte-identical to plain sim runs.
	Telemetry uint64 `json:"telemetry,omitempty"`

	// Config holds sim.Config field overrides (JSON object, same field
	// names as sim.Config) applied on top of the defaults and budget —
	// e.g. {"BWPerCore": 1.6e9, "MeasureInstr": 500000}. Only provided
	// fields override; everything else keeps its default. Workload and
	// mix jobs only: an experiment runs its own configurations, so
	// Validate rejects an experiment job that sets Config.
	Config json.RawMessage `json:"config,omitempty"`
}

// Validate checks the spec against the catalog of runnable work: an
// experiment job's workloads against exp.Budget.Validate, and the
// configuration a workload or mix job would run with against
// sim.Config.Validate, so no job the simulator would reject is queued.
func (sp JobSpec) Validate() error {
	set := 0
	for _, s := range []string{sp.Workload, sp.Mix, sp.Experiment} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("exactly one of workload, mix, or experiment must be set")
	}
	switch {
	case sp.Workload != "":
		if _, err := trace.Get(sp.Workload); err != nil {
			return err
		}
	case sp.Mix != "":
		if _, ok := trace.MultiProgramMixes()[sp.Mix]; !ok {
			return fmt.Errorf("unknown mix %q", sp.Mix)
		}
	case sp.Experiment != "":
		if _, ok := exp.Get(sp.Experiment); !ok {
			return fmt.Errorf("unknown experiment %q", sp.Experiment)
		}
	}
	switch sp.Budget {
	case "", "quick", "full":
	default:
		return fmt.Errorf("unknown budget %q (want quick or full)", sp.Budget)
	}
	if sp.Experiment != "" {
		if sp.Telemetry > 0 {
			return fmt.Errorf("telemetry streaming is only available for workload and mix jobs")
		}
		if len(sp.Config) > 0 {
			return fmt.Errorf("config overrides are only available for workload and mix jobs (an experiment runs its own configurations)")
		}
		return sp.budget().Validate()
	}
	cfg, err := sp.simConfig()
	if err != nil {
		return fmt.Errorf("bad config overrides: %w", err)
	}
	if cfg.MORCConfig != nil {
		if err := cfg.EffectiveMORCConfig().Validate(); err != nil {
			return fmt.Errorf("bad MORCConfig override: %w", err)
		}
	}
	// The job's system sets the core count, as sim.NewSingle and
	// sim.NewMix do, so a Cores override never runs; one above its
	// ceiling is refused all the same.
	if err := cfg.CheckCeilings(); err != nil {
		return err
	}
	cfg.Cores = 1
	if sp.Mix != "" {
		cfg.Cores = len(trace.MultiProgramMixes()[sp.Mix])
	}
	return cfg.Validate()
}

// strictUnmarshal decodes JSON rejecting unknown fields, so typos in
// config overrides fail at submit time instead of silently running the
// default configuration.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// budget resolves the spec's budget name.
func (sp JobSpec) budget() exp.Budget {
	b := exp.Quick()
	if sp.Budget == "full" {
		b = exp.Full()
	}
	b.Workloads = sp.Workloads
	b.Schemes = sp.Schemes
	return b
}

// simConfig builds the effective sim.Config for a workload/mix job:
// defaults over the budget window, then the raw overrides.
func (sp JobSpec) simConfig() (sim.Config, error) {
	cfg := sp.budget().Config(sp.Scheme)
	if sp.Telemetry > 0 {
		cfg.Telemetry.Every = sp.Telemetry
	}
	if len(sp.Config) > 0 {
		if err := strictUnmarshal(sp.Config, &cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// maxBufferedEpochs bounds the per-job live-epoch replay buffer; beyond
// it the oldest epochs are dropped (late subscribers miss them, but the
// exact full series still arrives on the finished job's Result).
const maxBufferedEpochs = 1024

// subBuffer is each SSE subscriber's channel capacity. A subscriber that
// falls further behind loses its oldest epochs rather than stalling the
// simulation loop.
const subBuffer = 64

// Job is one tracked unit of work. All mutable state is guarded by mu;
// done is closed exactly once when the job reaches a terminal state.
type Job struct {
	ID   string
	Spec JobSpec

	mu       sync.Mutex
	status   Status
	progress float64
	result   *sim.Result
	tables   []*exp.Table
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	// Live telemetry: a bounded replay buffer plus per-subscriber
	// channels, fed synchronously from the simulation loop.
	epochs  []telemetry.Epoch
	subs    map[int]chan telemetry.Epoch
	nextSub int

	// Tracing: the job's span tree, rooted at span. queueSp covers the
	// time on the queue, runSp the simulation itself, phaseSp the
	// currently open sim phase under runSp. All nil when tracing is off —
	// every obs method is nil-safe, so no call site branches on it.
	// onDrop reports SSE fan-out drops; it is invoked outside mu.
	traceID obs.TraceID
	span    *obs.ActiveSpan
	queueSp *obs.ActiveSpan
	runSp   *obs.ActiveSpan
	phaseSp *obs.ActiveSpan
	onDrop  func(n int)

	done chan struct{}
}

func newJob(id string, spec JobSpec, span, queueSp *obs.ActiveSpan, onDrop func(int)) *Job {
	return &Job{
		ID:      id,
		Spec:    spec,
		status:  StatusQueued,
		created: time.Now(),
		traceID: span.Context().TraceID,
		span:    span,
		queueSp: queueSp,
		onDrop:  onDrop,
		done:    make(chan struct{}),
	}
}

// TraceID is the job's trace identifier (zero when tracing is off). It
// is set at construction and never changes, so no lock is needed.
func (j *Job) TraceID() obs.TraceID { return j.traceID }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// setProgress records fractional completion (workload/mix jobs only).
func (j *Job) setProgress(done, total uint64) {
	if total == 0 {
		return
	}
	j.mu.Lock()
	j.progress = float64(done) / float64(total)
	j.mu.Unlock()
}

// publishEpoch buffers one completed telemetry epoch and fans it out to
// subscribers. It is the System.OnEpoch hook, called synchronously from
// the simulation loop at epoch boundaries, so everything here is
// non-blocking: the replay buffer and every subscriber channel drop
// their oldest entry instead of growing or stalling.
func (j *Job) publishEpoch(e telemetry.Epoch) {
	dropped := 0
	j.mu.Lock()
	if len(j.epochs) >= maxBufferedEpochs {
		j.epochs = j.epochs[1:]
	}
	j.epochs = append(j.epochs, e)
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
			// Full: evict the subscriber's oldest epoch. We hold mu, and
			// publishEpoch is the only sender, so the retry cannot race.
			select {
			case <-ch:
				dropped++
			default:
			}
			select {
			case ch <- e:
			default:
				dropped++
			}
		}
	}
	onDrop := j.onDrop
	j.mu.Unlock()
	// Report evictions outside mu: the callback takes the metrics lock
	// and may log.
	if dropped > 0 && onDrop != nil {
		onDrop(dropped)
	}
}

// subscribeEpochs registers a live-epoch subscriber: it returns a
// snapshot of the epochs buffered so far (for replay), a channel carrying
// subsequent ones, and a cancel func that must be called to unregister.
func (j *Job) subscribeEpochs() (history []telemetry.Epoch, ch <-chan telemetry.Epoch, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]telemetry.Epoch(nil), j.epochs...)
	c := make(chan telemetry.Epoch, subBuffer)
	if j.subs == nil {
		j.subs = map[int]chan telemetry.Epoch{}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = c
	return history, c, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

// timeseries returns the job's telemetry series: the exact (possibly
// compacted) final series once the job is done, or a snapshot of the
// epochs streamed so far while it runs. ok is false when the job records
// no telemetry at all.
func (j *Job) timeseries() (ts *telemetry.Series, ok bool) {
	cfg, err := j.Spec.simConfig()
	enabled := err == nil && j.Spec.Experiment == "" && cfg.Telemetry.Enabled()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result != nil && j.result.Telemetry != nil {
		return j.result.Telemetry, true
	}
	if !enabled {
		return nil, false
	}
	return &telemetry.Series{
		Scheme: j.Spec.Scheme.String(),
		Every:  cfg.Telemetry.Every,
		//morclint:ignore hotalloc snapshot under j.mu; the live epoch slice keeps growing after the response is encoded
		Epochs: append([]telemetry.Epoch(nil), j.epochs...),
	}, true
}

// start transitions queued → running, attaching the cancel func. It
// closes the queue span and opens the run span; queueWait is the time
// spent on the queue. ok is false if the job was cancelled while queued.
func (j *Job) start(cancel context.CancelFunc) (queueWait time.Duration, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return 0, false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	queueWait = j.queueSp.End()
	j.queueSp = nil
	j.runSp = j.span.StartSpan("run")
	return queueWait, true
}

// notePhase is the sim.System.OnPhase hook: each event begins a new
// phase span under the run span, implicitly ending the previous one.
// The simulator reports instruction counts only; wall-clock stamps are
// applied here, at the service layer, so the sim stays clock-free.
func (j *Job) notePhase(ev sim.PhaseEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.phaseSp.End()
	sp := j.runSp.StartSpan("sim." + ev.Phase)
	sp.SetAttr("instr", strconv.FormatUint(ev.Instr, 10))
	j.phaseSp = sp
}

// endSpansLocked closes every open span for a job reaching the terminal
// state st. Caller holds j.mu. Returns the run span's duration (0 for
// jobs that never started).
func (j *Job) endSpansLocked(st Status) time.Duration {
	j.phaseSp.End()
	j.phaseSp = nil
	runDur := j.runSp.End()
	j.runSp = nil
	j.queueSp.End() // non-nil only when cancelled while queued
	j.queueSp = nil
	j.span.SetAttr("status", string(st))
	j.span.End()
	return runDur
}

// finish transitions running → terminal. No-op if already terminal.
// The outcome is counted in m before done closes, so nothing that
// observes the job finish (a status read, a long-poll woken by done) can
// see it missing from the metrics.
func (j *Job) finish(st Status, res *sim.Result, tables []*exp.Table, errMsg string, m *metrics) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = st
	j.result = res
	j.tables = tables
	j.errMsg = errMsg
	j.finished = time.Now()
	if st == StatusDone {
		j.progress = 1
	}
	m.spanObserved("run", j.endSpansLocked(st))
	m.jobFinished(st, schemeLabel(j.Spec), j.finished.Sub(j.started).Seconds())
	close(j.done)
}

// requestCancel asks the job to stop. A queued job is cancelled
// immediately, and counted in m because no worker will report it (the
// worker skips it); a running job has its context cancelled and reaches
// the cancelled state when the simulator notices. Terminal jobs are left
// untouched.
func (j *Job) requestCancel(m *metrics) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.finished = time.Now()
		j.endSpansLocked(StatusCancelled)
		m.jobFinished(StatusCancelled, "", -1)
		close(j.done)
		j.mu.Unlock()
		return
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// JobView is the JSON representation served by GET /v1/jobs/{id}.
type JobView struct {
	ID       string  `json:"id"`
	Status   Status  `json:"status"`
	Spec     JobSpec `json:"spec"`
	Progress float64 `json:"progress"`
	Error    string  `json:"error,omitempty"`

	// Result is set for finished workload/mix jobs, Tables for finished
	// experiment jobs.
	Result *sim.Result  `json:"result,omitempty"`
	Tables []*exp.Table `json:"tables,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// DurationSec is wall time from start to finish (or to now while
	// running).
	DurationSec float64 `json:"duration_sec,omitempty"`

	// TraceID identifies the job's trace, exportable via
	// GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Status:    j.status,
		Spec:      j.Spec,
		Progress:  j.progress,
		Error:     j.errMsg,
		Result:    j.result,
		Tables:    j.tables,
		CreatedAt: j.created,
	}
	if !j.traceID.IsZero() {
		v.TraceID = j.traceID.String()
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.DurationSec = end.Sub(j.started).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}
