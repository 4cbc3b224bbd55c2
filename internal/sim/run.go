package sim

import (
	"context"
	"fmt"

	"morc/internal/trace"
)

// RunSingle simulates one workload on a single-core system.
func RunSingle(workload string, cfg Config) Result {
	res, err := RunSingleCtx(context.Background(), workload, cfg)
	if err != nil {
		panic("sim: " + err.Error())
	}
	return res
}

// RunSingleCtx is RunSingle under a context: the run stops early with
// ctx.Err() if cancelled, and unknown workloads and configurations
// Config.Validate rejects are an error instead of a panic.
func RunSingleCtx(ctx context.Context, workload string, cfg Config) (Result, error) {
	s, err := NewSingle(workload, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.RunCtx(ctx)
}

// NewSingle builds a single-core system running the given workload, or
// returns the error Config.Validate reports for cfg on one core.
func NewSingle(workload string, cfg Config) (*System, error) {
	cfg.Cores = 1
	p, err := trace.Get(workload)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg, []trace.Profile{p}), nil
}

// RunMix simulates one of Table 6's 16-program mixes on a 16-core system
// with a shared LLC and shared bandwidth.
func RunMix(mixName string, cfg Config) Result {
	res, err := RunMixCtx(context.Background(), mixName, cfg)
	if err != nil {
		panic("sim: " + err.Error())
	}
	return res
}

// RunMixCtx is RunMix under a context.
func RunMixCtx(ctx context.Context, mixName string, cfg Config) (Result, error) {
	s, err := NewMix(mixName, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.RunCtx(ctx)
}

// NewMix builds the 16-core system for one of Table 6's mixes, or
// returns the error Config.Validate reports for cfg on its cores.
func NewMix(mixName string, cfg Config) (*System, error) {
	mixes := trace.MultiProgramMixes()
	progs, ok := mixes[mixName]
	if !ok {
		return nil, fmt.Errorf("unknown mix %q", mixName)
	}
	cfg.Cores = len(progs)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return New(cfg, trace.MixPrograms(progs)), nil
}
