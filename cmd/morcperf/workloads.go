package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"morc/internal/exp"
	"morc/internal/rng"
	"morc/internal/server"
	"morc/internal/sim"
	"morc/internal/trace"
)

// Rep kinds. A workload's end-to-end metrics come from reps of its Kind
// and its set-up reps; its per-layer metrics come from a sim, a traced
// and a jobs rep.
const (
	kindSim    = "sim"    // run the workload's simulations untraced
	kindTraced = "traced" // replay them with a span around every layer call
	kindJobs   = "jobs"   // push the workload's job specs through the service
	kindSetup  = "setup"  // only set up, for more set-up samples per run
)

// workload is one set of inputs the benchmark runs. Sims are the
// simulations the workload consists of (for jobs-cluster: the ones its
// job specs run on the server); Jobs are the specs it pushes through
// the service (for the simulator workloads: a short probe of their own
// programs, so the service layers are measured on every workload).
type workload struct {
	Name string
	Why  string
	Kind string
	Sims func(seed int64, b budget) []simRun
	Jobs func(seed int64, b budget) []server.JobSpec
}

// budget shrinks instruction counts and job counts for -smoke runs,
// which exercise every code path in well under a second per rep.
type budget struct{ smoke bool }

func (b budget) instr(n uint64) uint64 {
	if b.smoke {
		return n / 100
	}
	return n
}

func (b budget) jobs(n int) int {
	if b.smoke {
		return 4
	}
	return n
}

// simRun is one simulation: a configuration and its per-core programs.
type simRun struct {
	Label string
	Cfg   sim.Config
	Progs []trace.Profile
}

// instr is the simulation's instruction count: warm-up plus
// measurement, all cores.
func (r simRun) instr() float64 {
	return float64(r.Cfg.Cores) * float64(r.Cfg.WarmupInstr+r.Cfg.MeasureInstr)
}

// workloads are the benchmark's inputs. Every simulator workload warms
// its LLC before it measures; the budgets make one rep take 3-8 s on a
// 2-CPU host.
var workloads = []workload{
	{
		Name: "morc-reads",
		Why:  "1-core MORC over zero-heavy, FP-duplicated and incompressible data: LLC fills and their LBE trial compression dominate host time",
		Kind: kindSim,
		Sims: func(seed int64, b budget) []simRun {
			var out []simRun
			for _, prog := range []string{"gcc", "cactusADM", "bzip2"} {
				cfg := sim.DefaultConfig()
				cfg.Scheme = sim.MORC
				cfg.WarmupInstr, cfg.MeasureInstr = b.instr(500_000), b.instr(1_000_000)
				out = append(out, simRun{prog + "/MORC", cfg, seeded([]trace.Profile{trace.MustGet(prog)}, seed)})
			}
			return out
		},
		Jobs: func(seed int64, b budget) []server.JobSpec {
			return jobSequence(seed, b.jobs(8),
				jobSpec("gcc", "", sim.MORC, b.instr(10_000), b.instr(40_000)),
				jobSpec("cactusADM", "", sim.MORC, b.instr(10_000), b.instr(40_000)),
				jobSpec("bzip2", "", sim.MORC, b.instr(10_000), b.instr(40_000)))
		},
	},
	{
		Name: "morc-stores-16c",
		Why:  "16 lbm cores on a 2 MB shared MORC LLC: write-backs as frequent as fills, the paper's manycore shape and the largest heap",
		Kind: kindSim,
		Sims: func(seed int64, b budget) []simRun {
			cfg := sim.DefaultConfig()
			cfg.Scheme = sim.MORC
			cfg.Cores = 16
			cfg.WarmupInstr, cfg.MeasureInstr = b.instr(70_000), b.instr(70_000)
			progs := make([]string, cfg.Cores)
			for i := range progs {
				progs[i] = "lbm"
			}
			return []simRun{{"16xlbm/MORC", cfg, seeded(trace.MixPrograms(progs), seed)}}
		},
		Jobs: func(seed int64, b budget) []server.JobSpec {
			return jobSequence(seed, b.jobs(8), jobSpec("lbm", "", sim.MORC, b.instr(10_000), b.instr(40_000)))
		},
	},
	{
		Name: "uncomp-mix16",
		Why:  "Table 6 mix M0 on an uncompressed LLC bypasses LBE: trace generation, the L1s and the sim loop's per-core scans dominate",
		Kind: kindSim,
		Sims: func(seed int64, b budget) []simRun {
			cfg := sim.DefaultConfig()
			progs := trace.MixPrograms(trace.MultiProgramMixes()["M0"])
			cfg.Cores = len(progs)
			cfg.WarmupInstr, cfg.MeasureInstr = b.instr(500_000), b.instr(2_000_000)
			return []simRun{{"M0/Uncompressed", cfg, seeded(progs, seed)}}
		},
		Jobs: func(seed int64, b budget) []server.JobSpec {
			return jobSequence(seed, b.jobs(8), jobSpec("", "M0", sim.Uncompressed, b.instr(2_000), b.instr(8_000)))
		},
	},
	{
		Name: "jobs-cluster",
		Why:  "Short jobs through an in-process morcd peer behind a coordinator, 2 closed-loop clients: the service path is most of each job's latency",
		Kind: kindJobs,
		Sims: func(seed int64, b budget) []simRun {
			// The simulations the server runs for this workload's jobs,
			// in job order: the job API carries no seed, so the seed only
			// orders them. All of them, so that a traced rep times
			// seconds of work rather than a fraction of one.
			var out []simRun
			for _, spec := range jobsClusterJobs(seed, b) {
				r, err := specSim(spec)
				if err != nil {
					panic(err) // the specs below are fixed and valid
				}
				out = append(out, r)
			}
			return out
		},
		Jobs: jobsClusterJobs,
	},
}

// jobsClusterJobs is jobs-cluster's job sequence. Job latency
// percentiles are taken per rep, so 100 jobs put 10 beyond the p90.
func jobsClusterJobs(seed int64, b budget) []server.JobSpec {
	return jobSequence(seed, b.jobs(100),
		jobSpec("gcc", "", sim.MORC, b.instr(10_000), b.instr(40_000)),
		jobSpec("mcf", "", sim.Uncompressed, b.instr(10_000), b.instr(200_000)))
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// splitmix is splitmix64's output function: it spreads a small
// benchmark seed over all 64 bits.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// seeded mixes the benchmark seed into every per-core profile seed, so
// the simulator only ever receives the generated profiles.
func seeded(progs []trace.Profile, seed int64) []trace.Profile {
	m := splitmix(uint64(seed))
	for i := range progs {
		progs[i].Seed ^= m
	}
	return progs
}

func jobSpec(workload, mix string, scheme sim.Scheme, warmup, measure uint64) server.JobSpec {
	return server.JobSpec{
		Workload: workload,
		Mix:      mix,
		Scheme:   scheme,
		Config:   json.RawMessage(fmt.Sprintf(`{"WarmupInstr":%d,"MeasureInstr":%d}`, warmup, measure)),
	}
}

// jobSequence cycles specs to n jobs, then shuffles them with the seed.
func jobSequence(seed int64, n int, specs ...server.JobSpec) []server.JobSpec {
	out := make([]server.JobSpec, n)
	for i := range out {
		out[i] = specs[i%len(specs)]
	}
	r := rng.New(splitmix(uint64(seed)))
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// specSim is the simulation morcd runs for a workload or mix job spec:
// the default (quick) budget's window and sampling interval, the spec's
// scheme, then its config overrides.
func specSim(spec server.JobSpec) (simRun, error) {
	q := exp.Quick()
	cfg := sim.DefaultConfig()
	cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = q.Warmup, q.Measure, q.SampleEvery
	cfg.Scheme = spec.Scheme
	if len(spec.Config) > 0 {
		dec := json.NewDecoder(bytes.NewReader(spec.Config))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return simRun{}, fmt.Errorf("job config: %w", err)
		}
	}
	var progs []trace.Profile
	label := spec.Workload
	if spec.Mix != "" {
		names, ok := trace.MultiProgramMixes()[spec.Mix]
		if !ok {
			return simRun{}, fmt.Errorf("unknown mix %q", spec.Mix)
		}
		progs, label = trace.MixPrograms(names), spec.Mix
	} else {
		p, err := trace.Get(spec.Workload)
		if err != nil {
			return simRun{}, err
		}
		progs = []trace.Profile{p}
	}
	cfg.Cores = len(progs)
	return simRun{label + "/" + cfg.Scheme.String(), cfg, progs}, nil
}
