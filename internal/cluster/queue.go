package cluster

import "sync"

// queue is the coordinator's pending-job buffer: a bounded FIFO that
// peer runners pull from — the pull, not a push to a chosen peer, is
// what makes placement work-stealing (whichever peer has a free slot
// first takes the next job). User submissions beyond the bound are
// rejected with backpressure; failover requeues bypass the bound and
// jump the line, because dropping an accepted job is never an option
// and a failed-over job is the oldest work in the system.
type queue struct {
	mu    sync.Mutex
	depth int
	items []*cjob
	wake  chan struct{} // cap-1 edge trigger for idle runners
}

func newQueue(depth int) *queue {
	return &queue{depth: depth, wake: make(chan struct{}, 1)}
}

// push appends a user submission; false means the queue is full. It
// never blocks: it is the job table's enqueue step, run under the
// table's lock (server.NewTable).
func (q *queue) push(j *cjob) bool {
	q.mu.Lock()
	if len(q.items) >= q.depth {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, j)
	q.mu.Unlock()
	q.notify()
	return true
}

// pushFront prepends a failover requeue, unbounded.
func (q *queue) pushFront(j *cjob) {
	q.mu.Lock()
	q.items = append([]*cjob{j}, q.items...)
	q.mu.Unlock()
	q.notify()
}

// pop removes the head, or nil when empty. If items remain the wake
// channel is re-armed so one pending notification cannot strand work
// behind a single woken runner.
func (q *queue) pop() *cjob {
	q.mu.Lock()
	var j *cjob
	if len(q.items) > 0 {
		j = q.items[0]
		copy(q.items, q.items[1:])
		q.items = q.items[:len(q.items)-1]
	}
	more := len(q.items) > 0
	q.mu.Unlock()
	if more {
		q.notify()
	}
	return j
}

func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// wakeCh is what idle runners block on.
func (q *queue) wakeCh() <-chan struct{} { return q.wake }

// notify is a non-blocking edge trigger: one buffered token is enough,
// pop re-arms it while work remains.
func (q *queue) notify() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
