package cluster

import (
	"testing"

	"morc/internal/server"
)

func testSpec() server.JobSpec {
	return server.JobSpec{Workload: "gcc", Budget: "quick"}
}

func TestClaimBindAdoptHappyPath(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)

	epoch, prev, _, ok := j.claim("http://a")
	if !ok || epoch != 1 || prev != "" {
		t.Fatalf("claim = (%d, %q, %v), want (1, \"\", true)", epoch, prev, ok)
	}
	if _, _, _, ok := j.claim("http://b"); ok {
		t.Fatal("second claim on an owned job succeeded")
	}

	rv := server.JobView{ID: "j000007", Status: server.StatusRunning}
	if !j.bind(epoch, "j000007", rv) {
		t.Fatal("bind with the claiming epoch failed")
	}
	done := server.JobView{ID: "j000007", Status: server.StatusDone}
	if !j.adopt(epoch, done) {
		t.Fatal("adopt with the claiming epoch failed")
	}
	if _, _, _, _, terminal := j.placement(); !terminal {
		t.Fatal("job not terminal after adopt")
	}
	if v := j.View(); v.ID != "c000001" || v.Status != server.StatusDone {
		t.Fatalf("View = (%s, %s), want cluster ID and done", v.ID, v.Status)
	}
	select {
	case <-j.done:
	default:
		t.Fatal("done channel not closed after adopt")
	}
}

// TestLateResultLosesFence is the fencing core: after a failover bumps
// the epoch, everything the old generation's runner tries — bind,
// updateView, adopt — is a no-op, and the re-dispatched generation's
// result is the only one that lands.
func TestLateResultLosesFence(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	e1, _, _, _ := j.claim("http://a")

	ok, finishedAs, from := j.requeue(e1, 3, "peer died")
	if !ok || finishedAs != "" || from != "http://a" {
		t.Fatalf("requeue = (%v, %q, %q), want (true, \"\", \"http://a\")", ok, finishedAs, from)
	}

	// The old generation limps back with a result: all fenced out.
	if j.bind(e1, "j000001", server.JobView{}) {
		t.Fatal("stale bind accepted")
	}
	stale := server.JobView{Status: server.StatusDone, Error: "stale"}
	if j.adopt(e1, stale) {
		t.Fatal("stale adopt accepted")
	}
	j.updateView(e1, stale)
	if v := j.View(); v.Status != server.StatusQueued || v.Error != "" {
		t.Fatalf("stale updateView leaked: %+v", v)
	}

	// The new generation proceeds normally, crediting the steal.
	e2, prev, _, ok := j.claim("http://b")
	if !ok || e2 != e1+1 || prev != "http://a" {
		t.Fatalf("reclaim = (%d, %q, %v), want (%d, http://a, true)", e2, prev, ok, e1+1)
	}
	if !j.adopt(e2, server.JobView{Status: server.StatusDone}) {
		t.Fatal("current-generation adopt rejected")
	}
}

// TestRequeueExactlyOncePerGeneration pins the prober/runner race: both
// observe the same epoch and both call requeue, but only the first one
// wins — so one peer death requeues each job exactly once.
func TestRequeueExactlyOncePerGeneration(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	e1, _, _, _ := j.claim("http://a")

	if ok, _, _ := j.requeue(e1, 3, "runner noticed"); !ok {
		t.Fatal("first requeue lost")
	}
	if ok, finishedAs, _ := j.requeue(e1, 3, "prober noticed"); ok || finishedAs != "" {
		t.Fatal("second requeue for the same generation won")
	}
}

func TestRequeueBudgetExhaustedFailsJob(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	const budget = 2
	for i := 0; i < budget; i++ {
		e, _, _, ok := j.claim("http://a")
		if !ok {
			t.Fatalf("claim %d failed", i)
		}
		if ok, finishedAs, _ := j.requeue(e, budget, "boom"); !ok || finishedAs != "" {
			t.Fatalf("requeue %d = (%v, %q), want (true, \"\")", i, ok, finishedAs)
		}
	}
	e, _, _, _ := j.claim("http://a")
	ok, finishedAs, _ := j.requeue(e, budget, "boom")
	if ok || finishedAs != server.StatusFailed {
		t.Fatalf("exhausted requeue = (%v, %q), want (false, failed)", ok, finishedAs)
	}
	v := j.View()
	if v.Status != server.StatusFailed || v.Error == "" {
		t.Fatalf("failed job view = %+v", v)
	}
}

func TestCancelPendingJobFinishesImmediately(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	act, _, _ := j.requestCancel()
	if act != cancelFinished {
		t.Fatalf("cancel action = %v, want cancelFinished", act)
	}
	if v := j.View(); v.Status != server.StatusCancelled {
		t.Fatalf("status = %s, want cancelled", v.Status)
	}
	if act, _, _ := j.requestCancel(); act != cancelNone {
		t.Fatalf("second cancel = %v, want cancelNone", act)
	}
}

// TestCancelDuringDispatchFailsBind covers a cancel landing while the
// submit round-trip is in flight: the job is claimed but unbound, so
// the cancel flags it and the runner's bind must fail (and orphan-kill
// the remote job it just created).
func TestCancelDuringDispatchFailsBind(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	e, _, _, _ := j.claim("http://a")
	act, _, _ := j.requestCancel()
	if act != cancelPending {
		t.Fatalf("cancel action = %v, want cancelPending", act)
	}
	if j.bind(e, "j000001", server.JobView{}) {
		t.Fatal("bind succeeded after cancel")
	}
}

// TestCancelRacesFailover: a job is cancelled while claimed-unbound,
// then its peer dies. The failover requeue must finish it as cancelled
// instead of re-dispatching work nobody wants.
func TestCancelRacesFailover(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	e, _, _, _ := j.claim("http://a")
	if act, _, _ := j.requestCancel(); act != cancelPending {
		t.Fatal("expected cancelPending")
	}
	ok, finishedAs, _ := j.requeue(e, 3, "peer died")
	if ok || finishedAs != server.StatusCancelled {
		t.Fatalf("requeue = (%v, %q), want (false, cancelled)", ok, finishedAs)
	}
	if v := j.View(); v.Status != server.StatusCancelled {
		t.Fatalf("status = %s, want cancelled", v.Status)
	}
}

func TestCancelBoundJobRoutesToPeer(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	e, _, _, _ := j.claim("http://a")
	j.bind(e, "j000042", server.JobView{Status: server.StatusRunning})
	act, peer, remote := j.requestCancel()
	if act != cancelRemote || peer != "http://a" || remote != "j000042" {
		t.Fatalf("cancel = (%v, %q, %q), want (cancelRemote, http://a, j000042)", act, peer, remote)
	}
}

func TestOwnedAt(t *testing.T) {
	j := newCJob("c000001", testSpec(), nil, nil)
	e, _, _, _ := j.claim("http://a")
	if !j.ownedAt(e) {
		t.Fatal("ownedAt(current) = false")
	}
	j.requeue(e, 3, "x")
	if j.ownedAt(e) {
		t.Fatal("ownedAt(stale) = true after failover")
	}
	e2, _, _, _ := j.claim("http://b")
	j.adopt(e2, server.JobView{Status: server.StatusDone})
	if j.ownedAt(e2) {
		t.Fatal("ownedAt = true on a terminal job")
	}
}
