package cluster

import (
	"errors"
	"testing"
	"time"

	"morc/internal/server/client"
)

func testRegistry(failThreshold int) *registry {
	return newRegistry(Config{
		NewClient:     client.New,
		ProbeTimeout:  time.Second,
		FailThreshold: failThreshold,
		BackoffBase:   time.Second,
		BackoffMax:    8 * time.Second,
	})
}

var errProbe = errors.New("probe failed")

func TestRegistryEjectionAtThreshold(t *testing.T) {
	r := testRegistry(3)
	r.add("http://a")
	now := time.Now()

	for i := 0; i < 2; i++ {
		if r.recordProbe("http://a", 0, errProbe, now) {
			t.Fatalf("ejected after %d failures, threshold is 3", i+1)
		}
		if !r.isUp("http://a") {
			t.Fatal("peer down before threshold")
		}
	}
	if !r.recordProbe("http://a", 0, errProbe, now) {
		t.Fatal("third failure did not report the up→down transition")
	}
	if r.isUp("http://a") {
		t.Fatal("peer still up after ejection")
	}
	// Further failures must not re-report the transition (failover runs
	// once per death, not once per probe).
	if r.recordProbe("http://a", 0, errProbe, now) {
		t.Fatal("transition reported twice")
	}
}

// TestRegistryDispatchErrorsCountTowardEjection: a peer that answers
// /healthz but drops real traffic is still ejected.
func TestRegistryDispatchErrorsCountTowardEjection(t *testing.T) {
	r := testRegistry(2)
	r.add("http://a")
	now := time.Now()
	if r.recordDispatchError("http://a", now) {
		t.Fatal("ejected on first dispatch error")
	}
	if !r.recordDispatchError("http://a", now) {
		t.Fatal("dispatch errors did not eject at the threshold")
	}
}

func TestRegistrySuccessResetsStreak(t *testing.T) {
	r := testRegistry(2)
	r.add("http://a")
	now := time.Now()
	r.recordDispatchError("http://a", now)
	r.recordDispatchOK("http://a")
	if r.recordDispatchError("http://a", now) {
		t.Fatal("streak survived an intervening success")
	}
}

// TestRegistryDispatchSuccessDoesNotReadmit: a dispatch call that
// answers after its peer was ejected began before the ejection, so it
// neither re-admits the peer nor cuts its backoff; only a probe does.
func TestRegistryDispatchSuccessDoesNotReadmit(t *testing.T) {
	r := testRegistry(1)
	r.add("http://a")
	now := time.Now()
	if !r.recordProbe("http://a", 0, errProbe, now) {
		t.Fatal("not ejected at threshold 1")
	}
	r.recordDispatchOK("http://a")
	if r.isUp("http://a") {
		t.Fatal("a dispatch success re-admitted an ejected peer")
	}
	if got := r.probeTargets(now.Add(500 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("a dispatch success cut the ejected peer's backoff: %d targets", len(got))
	}
}

func TestRegistryBackoffDoublesAndCaps(t *testing.T) {
	r := testRegistry(1)
	r.add("http://a")
	now := time.Now()

	if !r.recordProbe("http://a", 0, errProbe, now) {
		t.Fatal("not ejected at threshold 1")
	}
	// Base backoff 1s: not due again until now+1s.
	if got := r.probeTargets(now.Add(500 * time.Millisecond)); len(got) != 0 {
		t.Fatalf("down peer probed before backoff elapsed: %d targets", len(got))
	}
	if got := r.probeTargets(now.Add(time.Second)); len(got) != 1 {
		t.Fatalf("down peer not probed after backoff: %d targets", len(got))
	}

	// Each further failure doubles the wait: 2s, 4s, 8s, then capped.
	want := 2 * time.Second
	probeAt := now.Add(time.Second)
	for i := 0; i < 4; i++ {
		r.recordProbe("http://a", 0, errProbe, probeAt)
		if got := r.probeTargets(probeAt.Add(want - time.Millisecond)); len(got) != 0 {
			t.Fatalf("round %d: probed before %v backoff elapsed", i, want)
		}
		if got := r.probeTargets(probeAt.Add(want)); len(got) != 1 {
			t.Fatalf("round %d: not probed after %v backoff", i, want)
		}
		probeAt = probeAt.Add(want)
		if want < 8*time.Second {
			want *= 2
		}
	}
}

func TestRegistryReadmissionOnProbeSuccess(t *testing.T) {
	r := testRegistry(1)
	r.add("http://a")
	now := time.Now()
	r.recordProbe("http://a", 0, errProbe, now)
	if r.isUp("http://a") {
		t.Fatal("peer up after ejection")
	}
	if r.recordProbe("http://a", time.Millisecond, nil, now.Add(time.Second)) {
		t.Fatal("re-admission reported as a down transition")
	}
	if !r.isUp("http://a") {
		t.Fatal("peer not re-admitted after a successful probe")
	}
	// Clean slate: the old streak and backoff are gone.
	if r.recordProbe("http://a", 0, errProbe, now.Add(2*time.Second)) != true {
		t.Fatal("threshold-1 peer not ejected fresh after re-admission")
	}
}

func TestRegistryAddIdempotentAndSnapshotSorted(t *testing.T) {
	r := testRegistry(3)
	if !r.add("http://b") || !r.add("http://a") {
		t.Fatal("add of new peers failed")
	}
	if r.add("http://a") {
		t.Fatal("re-add reported the peer as new")
	}
	views := r.snapshot()
	if len(views) != 2 || views[0].URL != "http://a" || views[1].URL != "http://b" {
		t.Fatalf("snapshot not sorted by URL: %+v", views)
	}
	for _, v := range views {
		if v.State != stateUp {
			t.Fatalf("fresh peer %s state = %s", v.URL, v.State)
		}
	}
}
