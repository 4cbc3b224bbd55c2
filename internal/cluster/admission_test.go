package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSubmitsKeepJobTable hammers admission against a
// one-slot queue: many submitters race, most are rejected, and a
// stand-in runner drains the queue by cancelling what it pops. A
// rejected job must vanish from the table without disturbing the
// accepted ones: every listed job is a real job, the listing holds
// exactly the accepted submissions, and Shutdown still drains. The race
// detector cannot see a bug here, since every access is locked; only
// these invariants can.
func TestConcurrentSubmitsKeepJobTable(t *testing.T) {
	const submitters, perSubmitter = 16, 300
	cfg := testClusterCfg() // no peers: the stand-in runner below drains the queue
	cfg.QueueDepth = 1
	c := New(cfg)

	quit := make(chan struct{})
	runner := make(chan struct{})
	go func() {
		defer close(runner)
		for {
			if j := c.q.pop(); j != nil {
				c.Cancel(j.id)
				continue
			}
			select {
			case <-c.q.wakeCh():
			case <-quit:
				return
			}
		}
	}()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perSubmitter {
				if _, err := c.Submit(fastSpec()); err == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for c.q.len() > 0 {
		time.Sleep(time.Millisecond)
	}
	close(quit)
	<-runner

	jobs := c.Jobs()
	dangling := 0
	for _, j := range jobs {
		if j == nil {
			dangling++
		}
	}
	if dangling > 0 {
		t.Errorf("%d of %d listed jobs are nil: a rejected submission removed another job's entry", dangling, len(jobs))
	}
	if int64(len(jobs)) != accepted.Load() {
		t.Errorf("listed %d jobs, accepted %d", len(jobs), accepted.Load())
	}

	// Every accepted job was cancelled by the runner, so the drain has
	// nothing to wait for.
	shut := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				shut <- fmt.Errorf("panic: %v", r)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- c.Shutdown(ctx)
	}()
	select {
	case err := <-shut:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}
