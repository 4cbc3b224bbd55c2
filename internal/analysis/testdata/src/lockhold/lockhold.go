// Package lockhold is a morclint fixture: blocking operations inside
// critical sections, plus the non-blocking idioms the pass must accept.
package lockhold

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"
)

type srv struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

func (s *srv) blockingUnderLock(w io.Writer) {
	s.mu.Lock()
	fmt.Fprintf(w, "x")          // want "fmt.Fprintf writes to an interface-typed destination"
	time.Sleep(time.Millisecond) // want "sleeps while holding s.mu"
	s.ch <- 1                    // want "sends on s.ch while holding s.mu"
	<-s.ch                       // want "receives from s.ch while holding s.mu"
	s.wg.Wait()                  // want "waits on a sync.WaitGroup while holding s.mu"
	w.Write(nil)                 // want "calls Write on interface-typed w while holding s.mu"
	s.mu.Unlock()
	w.Write(nil) // after the unlock: fine
}

func (s *srv) selectWithoutDefault() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select with no default case blocks while holding s.mu"
	case v := <-s.ch:
		return v
	}
}

func (s *srv) rangesOverChannel() {
	s.mu.Lock()
	for v := range s.ch { // want "ranges over channel s.ch while holding s.mu"
		_ = v
	}
	s.mu.Unlock()
}

type flusher interface{ Flush() }

func (s *srv) flushUnderLock(f flusher) {
	s.mu.Lock()
	f.Flush() // want "flushes f while holding s.mu"
	s.mu.Unlock()
}

func (s *srv) nonBlockingIdioms(buf *bytes.Buffer) {
	s.mu.Lock()
	fmt.Fprintf(buf, "x") // concrete in-memory destination: fine
	select {
	case s.ch <- 1: // non-blocking thanks to the default case: fine
	default:
	}
	s.mu.Unlock()
	s.ch <- 2 // no lock held: fine
}

func (s *srv) nonBlockingDrain() (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		select {
		case <-s.ch: // non-blocking thanks to the default case: fine
			n++
		default:
			return n
		}
	}
}

type sharded struct {
	mus    []sync.Mutex
	shards []map[uint64][]byte
}

func (b *sharded) read(i int, addr uint64) []byte {
	b.mus[i].Lock()
	defer b.mus[i].Unlock()
	return b.shards[i][addr] // pure map access under an element lock: fine
}

func (b *sharded) fill(i int, addr uint64, data []byte) {
	b.mus[i].Lock()
	b.shards[i][addr] = data
	b.mus[i].Unlock()
}

func (s *srv) goroutineEscapesCriticalSection(w io.Writer) {
	s.mu.Lock()
	go func() {
		fmt.Fprintf(w, "x") // runs without the spawning goroutine's lock: fine
	}()
	s.mu.Unlock()
}

// notify is a function literal at package level: its body holds locks
// like any function's.
var notify = func(s *srv) {
	s.mu.Lock()
	s.ch <- 1 // want "sends on s.ch while holding s.mu"
	s.mu.Unlock()
}

// headers blocks in statement headers, which run under the lock just
// like the statements inside the blocks they open.
type headers struct {
	mu      sync.Mutex
	ch      chan int
	anys    chan any
	batches chan []int
}

func (h *headers) switchTag() {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch <-h.ch { // want "receives from h.ch while holding h.mu"
	case 0:
	}
}

func (h *headers) switchInit(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch time.Sleep(time.Millisecond); n { // want "sleeps while holding h.mu"
	case 0:
	}
}

func (h *headers) forPost() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < 3; h.ch <- i { // want "sends on h.ch while holding h.mu"
		i++
	}
}

func (h *headers) rangeExpr() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for range <-h.batches { // want "receives from h.batches while holding h.mu"
	}
}

func (h *headers) typeSwitchInit() {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch v := <-h.anys; v.(type) { // want "receives from h.anys while holding h.mu"
	case int:
	}
}
