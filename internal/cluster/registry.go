package cluster

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"morc/internal/server/client"
)

// Peer health states.
const (
	stateUp   = "up"
	stateDown = "down"
)

// peer is one morcd worker the coordinator can dispatch to. The clients
// are created once and never touched under the registry mutex; all
// mutable bookkeeping below the marker is guarded by registry.mu.
type peer struct {
	url string
	// dispatch is the retrying client jobs are submitted and polled
	// through; probe performs exactly one round-trip per health check so
	// the failure accounting sees every miss.
	dispatch *client.Client
	probe    *client.Client

	// guarded by registry.mu --------------------------------------------
	up        bool
	fails     int           // consecutive probe/dispatch failures
	backoff   time.Duration // current re-admission backoff (down peers)
	nextProbe time.Time     // down peers are probed no sooner than this
	inflight  int           // jobs this coordinator currently has on the peer
	// lifetime counters for /metrics and /v1/cluster/peers
	dispatched   uint64
	stolen       uint64
	requeued     uint64
	probeFails   uint64
	ejections    uint64
	lateResults  uint64
	lastProbe    time.Duration // latency of the last successful probe
	everProbedOK bool
}

// PeerView is the JSON representation of one peer on
// GET /v1/cluster/peers.
type PeerView struct {
	URL                 string  `json:"url"`
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	Inflight            int     `json:"inflight"`
	Dispatched          uint64  `json:"dispatched"`
	Stolen              uint64  `json:"stolen"`
	Requeued            uint64  `json:"requeued"`
	LateResults         uint64  `json:"late_results_discarded"`
	ProbeFailures       uint64  `json:"probe_failures"`
	Ejections           uint64  `json:"ejections"`
	LastProbeMillis     float64 `json:"last_probe_ms"`
	BackoffSeconds      float64 `json:"backoff_sec,omitempty"`
}

// registry tracks the peer set and its health. The contract — enforced
// by morclint's lockhold pass, which scans this package — is that no
// network call ever happens while mu is held: callers snapshot what
// they need, release the lock, do the round-trip, and report back
// through the record* methods.
type registry struct {
	newClient     func(baseURL string) *client.Client
	probeTimeout  time.Duration
	failThreshold int
	backoffBase   time.Duration
	backoffMax    time.Duration

	mu    sync.Mutex
	peers map[string]*peer
	order []string // admission order, for deterministic iteration
}

func newRegistry(cfg Config) *registry {
	return &registry{
		newClient:     cfg.NewClient,
		probeTimeout:  cfg.ProbeTimeout,
		failThreshold: cfg.FailThreshold,
		backoffBase:   cfg.BackoffBase,
		backoffMax:    cfg.BackoffMax,
		peers:         map[string]*peer{},
	}
}

// add admits a peer (idempotently), optimistically up so dispatch can
// start before the first probe round. Returns true when the peer is new.
func (r *registry) add(url string) bool {
	dispatch := r.newClient(url)
	probe := r.newClient(url)
	probe.Retries = 0
	probe.HTTPClient = &http.Client{Timeout: r.probeTimeout}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[url]; ok {
		return false
	}
	r.peers[url] = &peer{url: url, dispatch: dispatch, probe: probe, up: true}
	r.order = append(r.order, url)
	return true
}

// urls returns the peer set in admission order.
func (r *registry) urls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// clientFor hands out the retrying dispatch client for a peer.
func (r *registry) clientFor(url string) *client.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[url]; p != nil {
		return p.dispatch
	}
	return nil
}

// isUp reports whether the peer is currently admitted for dispatch.
func (r *registry) isUp(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peers[url]
	return p != nil && p.up
}

// probeTarget is one health check to perform outside the lock.
type probeTarget struct {
	url    string
	client *client.Client
}

// probeTargets selects the peers due for a health check at now: up
// peers on every round, down peers only once their re-admission backoff
// has elapsed.
func (r *registry) probeTargets(now time.Time) []probeTarget {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []probeTarget
	for _, url := range r.order {
		p := r.peers[url]
		if p.up || !now.Before(p.nextProbe) {
			out = append(out, probeTarget{url: url, client: p.probe})
		}
	}
	return out
}

// statusTargets returns every peer's single-shot probe client, for the
// cluster-overview scrape (which, like probing, happens outside the
// lock).
func (r *registry) statusTargets() []probeTarget {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]probeTarget, 0, len(r.order))
	for _, url := range r.order {
		out = append(out, probeTarget{url: url, client: r.peers[url].probe})
	}
	return out
}

// recordProbe folds one health-check outcome into the peer's state and
// reports whether this observation transitioned the peer up→down (the
// caller must then fail over the peer's jobs, outside the lock).
func (r *registry) recordProbe(url string, latency time.Duration, err error, now time.Time) (wentDown bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peers[url]
	if p == nil {
		return false
	}
	if err == nil {
		p.lastProbe = latency
		p.everProbedOK = true
		return r.noteSuccess(p)
	}
	p.probeFails++
	return r.noteFailure(p, now)
}

// recordDispatchError folds a dispatch/poll failure into the same
// consecutive-failure accounting as probes, so a peer that answers
// health checks but drops real traffic is still ejected.
func (r *registry) recordDispatchError(url string, now time.Time) (wentDown bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peers[url]
	if p == nil {
		return false
	}
	return r.noteFailure(p, now)
}

// recordDispatchOK clears the failure streak after a successful
// round-trip on the dispatch path. It never re-admits an ejected peer:
// a dispatch or poll that succeeds on a down peer may have started
// before the ejection (a long-poll parked on a partitioned peer answers
// when the orphaned job ends), so it is no evidence the peer is back.
// Only a probe re-admits, after the backoff.
func (r *registry) recordDispatchOK(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[url]; p != nil && p.up {
		r.noteSuccess(p)
	}
}

// noteSuccess resets the failure streak and re-admits a down peer.
// Callers hold r.mu. Reports false (never a down transition).
func (r *registry) noteSuccess(p *peer) bool {
	p.fails = 0
	p.backoff = 0
	if !p.up {
		p.up = true
	}
	return false
}

// noteFailure advances the failure streak; at the threshold the peer is
// ejected and its re-admission backoff starts doubling. Callers hold
// r.mu.
func (r *registry) noteFailure(p *peer, now time.Time) (wentDown bool) {
	p.fails++
	if p.up && p.fails >= r.failThreshold {
		p.up = false
		p.ejections++
		p.backoff = r.backoffBase
		p.nextProbe = now.Add(p.backoff)
		return true
	}
	if !p.up {
		// Still down: double the backoff up to the cap so a flapping
		// peer is re-probed progressively less often.
		p.backoff *= 2
		if p.backoff > r.backoffMax {
			p.backoff = r.backoffMax
		}
		p.nextProbe = now.Add(p.backoff)
	}
	return false
}

// dispatched counts a job handed to the peer; stolen marks that the job
// had previously been dispatched to a different peer.
func (r *registry) dispatchedJob(url string, stolen bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peers[url]
	if p == nil {
		return
	}
	p.inflight++
	p.dispatched++
	if stolen {
		p.stolen++
	}
}

// release returns the peer's in-flight slot when a dispatched job stops
// being tracked by its runner.
func (r *registry) release(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[url]; p != nil && p.inflight > 0 {
		p.inflight--
	}
}

// requeuedJob counts a job pulled back from the peer by failover.
func (r *registry) requeuedJob(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[url]; p != nil {
		p.requeued++
	}
}

// lateResult counts a result from the peer that lost the epoch fence.
func (r *registry) lateResult(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[url]; p != nil {
		p.lateResults++
	}
}

// snapshot renders every peer for /v1/cluster/peers and /metrics,
// sorted by URL so expositions are deterministic.
func (r *registry) snapshot() []PeerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PeerView, 0, len(r.peers))
	for _, url := range r.order {
		p := r.peers[url]
		v := PeerView{
			URL:                 p.url,
			State:               stateDown,
			ConsecutiveFailures: p.fails,
			Inflight:            p.inflight,
			Dispatched:          p.dispatched,
			Stolen:              p.stolen,
			Requeued:            p.requeued,
			LateResults:         p.lateResults,
			ProbeFailures:       p.probeFails,
			Ejections:           p.ejections,
			LastProbeMillis:     float64(p.lastProbe.Microseconds()) / 1000,
		}
		if p.up {
			v.State = stateUp
		} else {
			v.BackoffSeconds = p.backoff.Seconds()
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
