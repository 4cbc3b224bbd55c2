package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"morc/internal/cache"
	"morc/internal/sim"
	"morc/internal/trace"
)

// outcome is a finished simulation: its result and, for the figures
// that report what a sim.Result does not carry, a read of its LLC.
type outcome struct {
	sim.Result
	llc []float64
}

// grid runs every configuration on every program set, as one list of
// simulations on the pool, and returns the outcomes indexed [set]
// [configuration]; read, if set, reads each finished LLC. A failed run
// ends the experiment: grid panics with its error, which
// Experiment.Run recovers and returns.
func grid(ctx context.Context, sets [][]trace.Profile, cfgs []sim.Config, read func(cache.LLC) []float64) [][]outcome {
	out := make([][]outcome, len(sets))
	for i := range out {
		out[i] = make([]outcome, len(cfgs))
	}
	check(forEach(ctx, len(sets)*len(cfgs), func(ctx context.Context, i int) error {
		si, ci := i/len(cfgs), i%len(cfgs)
		o, cfg := &out[si][ci], cfgs[ci]
		cfg.Cores = len(sets[si])
		if err := cfg.Validate(); err != nil {
			return err
		}
		s := sim.New(cfg, sets[si])
		var err error
		if o.Result, err = s.RunCtx(ctx); err == nil && read != nil {
			o.llc = read(s.LLC())
		}
		return err
	}))
	return out
}

// singles gives each workload a one-program set.
func singles(workloads []string) [][]trace.Profile {
	sets := make([][]trace.Profile, len(workloads))
	for i, w := range workloads {
		sets[i] = []trace.Profile{trace.MustGet(w)}
	}
	return sets
}

// forEach is the experiments' one worker pool: it calls fn(ctx, i) for
// every i in [0, n) on up to GOMAXPROCS goroutines and returns the first
// error, with a panic in fn returned as one. Once a call fails or ctx is
// done, no call starts and the ctx the running calls hold is cancelled;
// forEach returns after they do.
func forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1
			defer func() {
				if r := recover(); r != nil {
					cancel(fmt.Errorf("exp: run %d panicked: %v", i, r))
				}
			}()
			for i = int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				if err := fn(ctx, i); err != nil {
					cancel(err)
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// failed carries a run's error from grid or check up to Experiment.Run.
type failed struct{ err error }

// check ends the running experiment with err, if there is one.
func check(err error) {
	if err != nil {
		panic(failed{err})
	}
}
