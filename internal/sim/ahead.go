package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"morc/internal/cache"
)

// running counts, process-wide, the simulations inside RunCtx, the
// helpers they run and the work Busy counts. A helper starts only while
// the count is below GOMAXPROCS: a helper on a saturated process only
// takes CPU from another simulation.
var running atomic.Int64

// Busy counts the caller as a simulation until it calls done, so that
// no RunCtx starts a helper for the CPU it keeps busy. Work that
// simulates without RunCtx, such as an experiment's own cache loop,
// calls it.
func Busy() (done func()) {
	running.Add(1)
	return func() { running.Add(-1) }
}

// aheadMode overrides aheadFor's decision, for tests.
type aheadMode int8

const (
	aheadAuto aheadMode = iota // a helper when aheadFor's gates pass
	aheadOn                    // always a helper
	aheadOff                   // never a helper
)

// aheadBudget bounds the bytes of the batches one run has in flight,
// and batchOps the ops of one batch.
const (
	aheadBudget = 512 << 10
	batchOps    = 256
)

// batchPool recycles batches of the largest shape, batchOps ops and
// half as many lines, from one run to the next: a short run, such as a
// morcd job, would otherwise allocate about aheadBudget for a helper.
var batchPool sync.Pool

// batch is a run of one core's ops, made by its front end ahead of the
// back end, and the pristine lines of its misses, in order.
type batch struct {
	ops   []op
	n     int    // ops made
	lines []byte // LineSize per miss among ops[:n]
	next  *batch // the next batch in a ready queue or the free list
}

// newBatch returns an empty batch of at most ops ops and lines misses.
func newBatch(ops, lines int) *batch {
	if ops == batchOps && lines == batchOps/2 {
		if b, ok := batchPool.Get().(*batch); ok {
			return b
		}
	}
	return &batch{ops: make([]op, ops), lines: make([]byte, lines*cache.LineSize)}
}

// recycleList empties the batches linked from b into batchPool, those
// of the shape it holds.
func recycleList(b *batch) {
	for b != nil {
		next := b.next
		if len(b.ops) == batchOps && b.maxLines() == batchOps/2 {
			b.n, b.next = 0, nil
			batchPool.Put(b)
		}
		b = next
	}
}

// maxLines is how many misses the batch can hold.
func (b *batch) maxLines() int { return len(b.lines) / cache.LineSize }

// line returns the batch's i-th pristine line.
func (b *batch) line(i int) []byte {
	off := i * cache.LineSize
	return b.lines[off : off+cache.LineSize : off+cache.LineSize]
}

// ahead runs the cores' front ends ahead of the back end: a helper
// goroutine fills per-core batches from a pool of them, and the back end
// (System.step) consumes each core's batches in order. A core's front
// end runs on one goroutine at a time, the one that marked it busy under
// mu, so the front end's state (the generator, the L1's tags, the value
// model's draws and pools) passes between the goroutines only through
// mu. Everything else of a core is the back end's.
type ahead struct {
	mu sync.Mutex
	// helper is where the helper waits for a free batch or a core to
	// fill, back where the back end waits for a batch the helper is
	// filling; both on mu.
	helper, back sync.Cond
	helperIdle   bool // the helper waits on helper
	backWaiting  bool // the back end waits on back

	cores []aheadCore
	free  *batch // unused batches
	nfree int
	made  int // batches allocated
	// maxBatches bounds made; wakeAt is how many free batches wake an
	// idle helper; ops and lines size each batch.
	maxBatches, wakeAt, ops, lines int

	stop    bool // join asked the helper to exit
	failed  bool // the helper panicked, with failure
	failure any
	raised  bool // failure was raised on the back end's goroutine
	onFill  func(core int)
	done    chan struct{} // closed when the helper has exited
}

// aheadCore is one core's share of the pool: its ready batches, oldest
// first, and who may run its front end.
type aheadCore struct {
	head, tail *batch
	ready      int
	busy       bool // a goroutine is running the core's front end
	ended      bool // its front end made the stream's last op
}

// aheadFor starts a helper running the front ends ahead, when it pays:
// the LLC compresses, so the back end's share of each access is large
// enough for the two halves to overlap, and the process has a CPU that
// no other simulation, helper or Busy caller uses. It returns nil
// otherwise.
func (s *System) aheadFor() *ahead {
	auto := s.aheadMode == aheadAuto
	switch {
	case s.aheadMode == aheadOff:
		return nil
	case auto && !s.cfg.Scheme.compresses():
		return nil
	}
	if running.Add(1) > int64(runtime.GOMAXPROCS(0)) && auto {
		running.Add(-1)
		return nil
	}
	h := newAhead(s)
	go h.run(s)
	return h
}

// newAhead sizes the pool for s's cores within aheadBudget and hands
// every core an empty batch to consume first, so the back end always
// holds one batch per core and never allocates.
func newAhead(s *System) *ahead {
	n := len(s.cores)
	h := &ahead{
		cores:      make([]aheadCore, n),
		maxBatches: max(28, 2*n),
		onFill:     s.onHelperFill,
		done:       make(chan struct{}),
	}
	// A batch's ops plus the lines of a miss in every other op.
	perOp := int(unsafe.Sizeof(op{})) + cache.LineSize/2
	h.ops = min(batchOps, aheadBudget/h.maxBatches/perOp)
	h.lines = h.ops / 2
	if s.batchCap > 0 {
		h.ops, h.lines = s.batchCap, max(1, s.batchCap/2)
	}
	h.wakeAt = max(1, h.maxBatches/4)
	h.helper.L, h.back.L = &h.mu, &h.mu
	for _, c := range s.cores {
		c.batch, c.next, c.line = newBatch(h.ops, h.lines), 0, 0
		h.made++
	}
	return h
}

// run is the helper: it fills the neediest core's next batch (pick)
// while a batch is free, and waits otherwise, until join stops it or
// every stream has ended. It recovers a panic of the front end for the
// back end to raise.
func (h *ahead) run(s *System) {
	defer close(h.done)
	defer running.Add(-1)
	h.mu.Lock()
	defer h.mu.Unlock()
	for !h.stop {
		c := h.pick(s)
		if c == nil && h.allEnded() {
			break
		}
		var b *batch
		if c != nil {
			b = h.take()
		}
		if b == nil {
			h.helperIdle = true
			h.helper.Wait()
			h.helperIdle = false
			continue
		}
		q := &h.cores[c.id]
		q.busy = true
		h.mu.Unlock()
		ended, failure := h.fill(c, b)
		h.mu.Lock()
		q.busy = false
		if failure != nil {
			h.failed, h.failure = true, failure
			break
		}
		q.ended = ended
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail = b
		q.ready++
		if h.backWaiting {
			h.back.Signal()
		}
	}
	// A back end waiting for the batch a failed fill left is woken to
	// raise the failure.
	h.back.Signal()
}

// fill runs c's front end into b on the helper, returning its panic
// value if it panics.
func (h *ahead) fill(c *coreState, b *batch) (ended bool, failure any) {
	defer func() { failure = recover() }()
	if h.onFill != nil {
		h.onFill(c.id)
	}
	return c.fe.fill(b), nil
}

// pick returns the core whose batch the helper fills next: of the cores
// whose front end no goroutine runs and whose stream has not ended, the
// one with the fewest ready batches, then the fewest instructions made
// (the back end steps the cores that are furthest behind first); nil if
// there is none.
func (h *ahead) pick(s *System) *coreState {
	var best *coreState
	for i, c := range s.cores {
		q := &h.cores[i]
		if q.busy || q.ended {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		if b := &h.cores[best.id]; q.ready < b.ready || q.ready == b.ready && c.fe.instr < best.fe.instr {
			best = c
		}
	}
	return best
}

// allEnded reports whether every core's stream has ended.
func (h *ahead) allEnded() bool {
	for i := range h.cores {
		if !h.cores[i].ended {
			return false
		}
	}
	return true
}

// take returns a free batch, or a new one while the pool is below its
// bound, or nil.
func (h *ahead) take() *batch {
	if b := h.free; b != nil {
		h.free, b.next = b.next, nil
		h.nfree--
		return b
	}
	if h.made < h.maxBatches {
		h.made++
		return newBatch(h.ops, h.lines)
	}
	return nil
}

// release returns a consumed batch to the pool, waking an idle helper
// once wakeAt batches are free, so that it fills several in a row.
func (h *ahead) release(b *batch) {
	b.next = h.free
	h.free = b
	h.nfree++
	if h.helperIdle && h.nfree >= h.wakeAt {
		h.helper.Signal()
	}
}

// refill gives core c its next batch once c.batch is consumed: the
// oldest ready one, or, while no goroutine runs c's front end, one the
// back end fills itself into the batch it just consumed. It waits only
// for a batch the helper is filling for c.
func (h *ahead) refill(c *coreState) {
	h.mu.Lock()
	q := &h.cores[c.id]
	for q.head == nil && q.busy && !h.failed {
		h.backWaiting = true
		h.back.Wait()
		h.backWaiting = false
	}
	if h.failed {
		h.raised = true
		h.mu.Unlock()
		panic(h.failure)
	}
	if b := q.head; b != nil {
		q.head, b.next = b.next, nil
		if q.head == nil {
			q.tail = nil
		}
		q.ready--
		h.release(c.batch)
		h.mu.Unlock()
		c.batch, c.next, c.line = b, 0, 0
		return
	}
	if q.ended {
		h.mu.Unlock()
		panic("sim: a core stepped past the end of its front end's stream")
	}
	q.busy = true
	h.mu.Unlock()
	ended := c.fe.fill(c.batch)
	h.mu.Lock()
	q.busy, q.ended = false, ended
	if h.helperIdle {
		h.helper.Signal()
	}
	h.mu.Unlock()
	if c.batch.n == 0 {
		panic("sim: a core stepped past the end of its front end's stream")
	}
	c.next, c.line = 0, 0
}

// join stops the helper, waits for it to exit, recycles every batch,
// those s's cores hold included (s runs once), and raises the helper's
// panic on the caller's goroutine if the back end has not raised it
// yet.
func (h *ahead) join(s *System) {
	h.mu.Lock()
	h.stop = true
	h.helper.Signal()
	h.mu.Unlock()
	<-h.done
	recycleList(h.free)
	h.free = nil
	for i := range h.cores {
		q := &h.cores[i]
		recycleList(q.head)
		q.head, q.tail = nil, nil
		recycleList(s.cores[i].batch)
		s.cores[i].batch = nil
	}
	if h.failed && !h.raised {
		h.raised = true
		panic(h.failure)
	}
}
