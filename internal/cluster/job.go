package cluster

import (
	"strconv"
	"sync"
	"time"

	"morc/internal/obs"
	"morc/internal/server"
)

// cjob is one job tracked by the coordinator. Its lifecycle mirrors the
// single-node server's, with one extra axis: ownership. A job is either
// pending (peer == ""), claimed/dispatched to a peer, or terminal.
//
// Fencing: epoch counts dispatch generations. Every interaction a
// runner has with the job carries the epoch it claimed the job at; any
// mutation whose epoch no longer matches is a no-op. A failover bumps
// the epoch, so whatever a slow or resurrected peer later reports for
// the old generation is discarded deterministically — the re-dispatched
// generation's result is the only one that can ever land.
type cjob struct {
	id      string
	spec    server.JobSpec
	created time.Time
	metrics *cmetrics // counts the outcome; nil in unit tests

	mu        sync.Mutex
	epoch     uint64 // current dispatch generation (starts at 1)
	peer      string // owning peer base URL, "" while pending
	lastPeer  string // previous owner, for the stolen metric
	remoteID  string // job id on the owning peer
	requeues  int    // failover count
	cancelled bool   // cancel requested before the job was bound
	terminal  bool
	view      server.JobView // last known view (remote ID; rewritten when served)
	done      chan struct{}

	// Tracing: the coordinator-side half of the job's trace. span is the
	// root, queueSp covers time in the pending queue, dispatchSp one
	// dispatch attempt (a failover closes it and opens a fresh queue
	// span, so the trace narrates every generation). The peer's spans
	// join the same trace via traceparent propagation on dispatch.
	traceID    obs.TraceID
	span       *obs.ActiveSpan
	queueSp    *obs.ActiveSpan
	dispatchSp *obs.ActiveSpan
}

func newCJob(id string, spec server.JobSpec, span, queueSp *obs.ActiveSpan) *cjob {
	j := &cjob{
		id:      id,
		spec:    spec,
		epoch:   1,
		created: time.Now(),
		done:    make(chan struct{}),
		traceID: span.Context().TraceID,
		span:    span,
		queueSp: queueSp,
	}
	j.view = j.pendingViewLocked(server.StatusQueued)
	return j
}

// pendingViewLocked synthesizes the view served while no peer owns the
// job. Callers hold j.mu (or the job is not yet shared).
func (j *cjob) pendingViewLocked(st server.Status) server.JobView {
	return server.JobView{ID: j.id, Status: st, Spec: j.spec, CreatedAt: j.created}
}

// claim transfers a pending job to a runner. prevPeer reports who owned
// it before a failover ("" on first dispatch) so the caller can count
// steals; ok is false for jobs that are terminal or already owned. The
// queue span ends here and a dispatch span opens; dispatch is its
// context, for the runner to propagate to the peer.
func (j *cjob) claim(peerURL string) (epoch uint64, prevPeer string, dispatch obs.SpanContext, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal || j.peer != "" {
		return 0, "", obs.SpanContext{}, false
	}
	j.peer = peerURL
	j.queueSp.End()
	j.queueSp = nil
	sp := j.span.StartSpan("dispatch")
	sp.SetAttr("peer", peerURL)
	sp.SetAttr("epoch", strconv.FormatUint(j.epoch, 10))
	sp.SetAttr("stolen", strconv.FormatBool(j.lastPeer != "" && j.lastPeer != peerURL))
	j.dispatchSp = sp
	return j.epoch, j.lastPeer, sp.Context(), true
}

// bind records the remote job the claim turned into. It fails when the
// job was failed over or cancelled while the submit round-trip was in
// flight; the caller must then best-effort cancel the remote job.
func (j *cjob) bind(epoch uint64, remoteID string, v server.JobView) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal || j.cancelled || epoch != j.epoch {
		return false
	}
	j.remoteID = remoteID
	j.view = v
	return true
}

// updateView refreshes the cached remote view, fenced by epoch.
func (j *cjob) updateView(epoch uint64, v server.JobView) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal || epoch != j.epoch {
		return
	}
	j.view = v
}

// finishLocked lands the job's final view v: it closes every open
// coordinator-side span and counts the outcome before it closes done,
// so nothing that observes the job finish (a status read, a long-poll
// woken by done) can see it missing from the counters. Callers hold
// j.mu.
func (j *cjob) finishLocked(v server.JobView) {
	j.terminal = true
	j.view = v
	j.dispatchSp.End()
	j.dispatchSp = nil
	j.queueSp.End()
	j.queueSp = nil
	j.span.SetAttr("status", string(v.Status))
	j.span.End()
	if j.metrics != nil {
		j.metrics.finished(v.Status)
	}
	close(j.done)
}

// adopt lands a terminal remote view. False means the result lost the
// fence — the job was re-dispatched (or already finished) — and must be
// discarded.
func (j *cjob) adopt(epoch uint64, v server.JobView) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal || epoch != j.epoch {
		return false
	}
	j.finishLocked(v)
	return true
}

// requeue pulls the job back from a failed peer and opens the next
// dispatch generation. Exactly one caller wins for a given generation:
// the epoch check makes every later attempt (the prober and the
// polling runner both race here) a no-op. When this call itself
// finishes the job — failover budget exhausted, or a cancel raced the
// failover — finishedAs carries the terminal status for the caller to
// log.
func (j *cjob) requeue(epoch uint64, maxRequeues int, reason string) (ok bool, finishedAs server.Status, fromPeer string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal || epoch != j.epoch {
		return false, "", ""
	}
	fromPeer = j.peer
	j.lastPeer = j.peer
	j.peer = ""
	j.remoteID = ""
	j.epoch++
	j.requeues++
	// The dispatch attempt is over either way; its span records why.
	j.dispatchSp.SetAttr("requeued", reason)
	j.dispatchSp.End()
	j.dispatchSp = nil
	if j.requeues > maxRequeues {
		v := j.pendingViewLocked(server.StatusFailed)
		v.Error = "job failed over too many times: " + reason
		j.finishLocked(v)
		return false, server.StatusFailed, fromPeer
	}
	if j.cancelled {
		// Cancel raced the failover: finish as cancelled instead of
		// re-dispatching work nobody wants.
		j.finishLocked(j.pendingViewLocked(server.StatusCancelled))
		return false, server.StatusCancelled, fromPeer
	}
	j.view = j.pendingViewLocked(server.StatusQueued)
	j.queueSp = j.span.StartSpan("queue")
	return true, "", fromPeer
}

// cancelAction tells Cancel how to proceed for the job's current state.
type cancelAction int

const (
	cancelNone     cancelAction = iota // already terminal
	cancelFinished                     // this call finished a pending job
	cancelPending                      // claimed but unbound: bind will notice
	cancelRemote                       // bound: DELETE on the owning peer
)

// requestCancel resolves what cancelling the job means right now.
func (j *cjob) requestCancel() (act cancelAction, peerURL, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.terminal:
		return cancelNone, "", ""
	case j.peer == "":
		j.cancelled = true
		j.finishLocked(j.pendingViewLocked(server.StatusCancelled))
		return cancelFinished, "", ""
	case j.remoteID == "":
		j.cancelled = true
		return cancelPending, "", ""
	default:
		return cancelRemote, j.peer, j.remoteID
	}
}

// placement snapshots where the job currently runs.
func (j *cjob) placement() (peerURL, remoteID string, epoch uint64, requeues int, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.peer, j.remoteID, j.epoch, j.requeues, j.terminal
}

// serveView is the view served over the coordinator's API: the cached
// remote view with the job's cluster-wide ID in place of the peer-local
// one. The trace ID is the coordinator's, which the peer shares (the
// dispatch propagated it), so it is set even while the job is pending.
func (j *cjob) serveView() server.JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.view
	v.ID = j.id
	if !j.traceID.IsZero() {
		v.TraceID = j.traceID.String()
	}
	return v
}

// isTerminal reports whether the job reached a terminal state.
func (j *cjob) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal
}

// ownedAt reports whether the runner generation epoch still owns the
// job — pollers use it to abandon work after a failover.
func (j *cjob) ownedAt(epoch uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.terminal && j.epoch == epoch
}
