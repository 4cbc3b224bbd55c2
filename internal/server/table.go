package server

import (
	"context"
	"fmt"
	"sync"

	"morc/internal/obs"
)

// morcd and the cluster coordinator serve one /v1/jobs front end: this
// job table with its one admission path, and the job handlers of
// RegisterJobs. Each service supplies only what differs: how a job is
// built and queued, how it is cancelled, and where its trace lives.

// Tracked is a job as the table and the handlers see it.
type Tracked interface {
	// View snapshots the job for its JSON answers.
	View() JobView
	// Done is closed when the job reaches a terminal state.
	Done() <-chan struct{}
}

// Table is a service's job table. It admits jobs, looks them up and
// lists them in admission order.
type Table[J Tracked] struct {
	prefix  string
	tracer  *obs.Tracer
	newJob  func(id string, spec JobSpec, span, queueSp *obs.ActiveSpan) J
	enqueue func(J) bool

	mu     sync.Mutex
	jobs   map[string]J
	order  []J
	nextID uint64
	closed bool
}

// NewTable builds a table whose job IDs are prefix and a six-digit
// sequence number, and whose job traces are opened on tracer. newJob
// builds the job admitted under an ID, with its open job and queue
// spans. enqueue offers the job to the service's queue and reports false
// when the queue is full. Both run under the table's lock, which is what
// lists a job exactly when it was queued, so neither may block: enqueue
// is a select with a default case or a bounded push, never a wait for
// room.
func NewTable[J Tracked](prefix string, tracer *obs.Tracer,
	newJob func(id string, spec JobSpec, span, queueSp *obs.ActiveSpan) J, enqueue func(J) bool) *Table[J] {
	return &Table[J]{prefix: prefix, tracer: tracer, newJob: newJob, enqueue: enqueue, jobs: map[string]J{}}
}

// Admit validates spec and admits a job for it. parent (extracted from a
// traceparent header, or zero) becomes the job span's parent, and when
// synthesizeClient is set a zero-duration "client.submit" root span is
// recorded for it: CLI clients originate a trace but have nowhere to
// store their own spans, so the service keeps it on their behalf. The
// error is the spec's validation error, ErrShuttingDown once Close has
// run, or ErrQueueFull when enqueue refused the job; a refused job is
// never listed.
func (t *Table[J]) Admit(spec JobSpec, parent obs.SpanContext, synthesizeClient bool) (J, error) {
	var zero J
	if err := spec.Validate(); err != nil {
		return zero, err
	}
	// Spans are created before taking t.mu: the tracer has its own lock
	// and must never nest inside the table's.
	if synthesizeClient && parent.Valid() {
		t.tracer.SynthesizeRoot(parent, "client", "client.submit")
	}
	span := t.tracer.StartSpan(parent, "job")
	span.SetAttr("kind", schemeLabel(spec))
	queueSp := span.StartSpan("queue")

	j, err := zero, ErrShuttingDown
	t.mu.Lock()
	if !t.closed {
		t.nextID++
		id := fmt.Sprintf("%s%06d", t.prefix, t.nextID)
		if j = t.newJob(id, spec, span, queueSp); t.enqueue(j) {
			t.jobs[id] = j
			t.order = append(t.order, j)
			err = nil
		} else {
			err = ErrQueueFull
		}
	}
	t.mu.Unlock()
	if err != nil {
		queueSp.End()
		span.SetAttr("status", "rejected")
		span.End()
		return zero, err
	}
	return j, nil
}

// Job looks up a job by ID.
func (t *Table[J]) Job(id string) (J, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// Jobs returns all jobs in admission order.
func (t *Table[J]) Jobs() []J {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]J(nil), t.order...)
}

// Close stops admission. It reports whether this call closed the table,
// after which no enqueue runs again.
func (t *Table[J]) Close() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := !t.closed
	t.closed = true
	return first
}

// Closed reports whether Close has run.
func (t *Table[J]) Closed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Drain waits until every admitted job is done, or returns ctx.Err()
// when ctx ends first. After Close the list it waits on is complete.
func (t *Table[J]) Drain(ctx context.Context) error {
	for _, j := range t.Jobs() {
		select {
		case <-j.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// schemeLabel is a job's kind: its metrics label and span attribute.
func schemeLabel(sp JobSpec) string {
	if sp.Experiment != "" {
		return "exp:" + sp.Experiment
	}
	return sp.Scheme.String()
}
