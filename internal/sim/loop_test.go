package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"morc/internal/telemetry"
)

// runScan is run as it was before the core heap and the running
// instruction total, kept as run's differential oracle: every step scans
// all cores for the oldest (the lowest index on a tie) and, while
// measuring, sums every core's instructions.
func (s *System) runScan(ctx context.Context) error {
	done := ctx.Done()
	steps := 0
	for {
		var pick *coreState
		for _, c := range s.cores {
			if c.instr >= c.target {
				continue
			}
			if pick == nil || c.now < pick.now {
				pick = c
			}
		}
		if pick == nil {
			return nil
		}
		s.step(pick)
		if pick.instr >= pick.snapAt {
			s.windowSnap(pick)
		}
		if steps++; steps >= checkEvery {
			steps = 0
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if s.OnProgress != nil {
				var instr uint64
				for _, c := range s.cores {
					instr += c.instr
				}
				total := s.totalTarget()
				s.OnProgress(clampProgress(instr, total), total)
			}
		}
		if s.measuring {
			var total uint64
			for _, c := range s.cores {
				total += c.instr
			}
			meas := total - s.sampleAt
			if s.ratio.Due(meas) {
				r := s.llc.Ratio()
				s.ratio.Tick(meas, r)
				if s.tel != nil {
					s.tel.ObserveRatio(r, s.ratio.Count())
				}
			}
			if s.tel != nil && s.tel.Due(meas) {
				s.tel.Record(s.telemetrySample(meas))
			}
		}
	}
}

// runFullScan is RunCtx's full-fidelity path with runScan as the loop.
func (s *System) runFullScan(ctx context.Context) (Result, error) {
	s.emitPhase("warmup", -1, -1)
	for _, c := range s.cores {
		c.target = s.cfg.WarmupInstr
	}
	if err := s.runScan(ctx); err != nil {
		return Result{}, err
	}
	s.beginMeasurement()
	s.emitPhase("measure", -1, -1)
	for _, c := range s.cores {
		c.target = c.instr + s.cfg.MeasureInstr
	}
	if s.cfg.Telemetry.Enabled() {
		s.tel = telemetry.NewRecorder(s.cfg.Telemetry, s.cfg.Scheme.String(), s.OnEpoch)
		s.tel.Begin(s.telemetrySample(0))
	}
	if err := s.runScan(ctx); err != nil {
		return Result{}, err
	}
	ratio := s.llc.Ratio()
	s.ratio.ForceSample(ratio)
	if s.tel != nil {
		s.tel.ObserveRatio(ratio, s.ratio.Count())
	}
	res := s.collect()
	if s.OnProgress != nil {
		s.OnProgress(s.totalTarget(), s.totalTarget())
	}
	return res, nil
}

// loopTrace is everything a run reports through its hooks.
type loopTrace struct {
	progress [][2]uint64
	epochs   []telemetry.Epoch
	phases   []PhaseEvent
}

func (lt *loopTrace) attach(s *System) {
	s.OnProgress = func(done, total uint64) { lt.progress = append(lt.progress, [2]uint64{done, total}) }
	s.OnEpoch = func(e telemetry.Epoch) { lt.epochs = append(lt.epochs, e) }
	s.OnPhase = func(ev PhaseEvent) { lt.phases = append(lt.phases, ev) }
}

// TestRunMatchesScanOracle runs full simulations through run and through
// the scan loop it replaced, on one core and on 16-core mixes where
// ties between core clocks are common, and requires byte-identical
// Result JSON and identical progress, epoch and phase sequences.
func TestRunMatchesScanOracle(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		mix    string // "" runs gcc on one core
	}{{MORC, ""}, {MORC, "M0"}, {Uncompressed, "M0"}, {MORC, "M3"}} {
		name := tc.mix
		if name == "" {
			name = "gcc"
		}
		t.Run(fmt.Sprintf("%v/%s", tc.scheme, name), func(t *testing.T) {
			cfg := parCfg(tc.scheme)
			if tc.mix != "" {
				cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = 8_000, 20_000, 10_000
			}
			cfg.Telemetry.Every = cfg.MeasureInstr / 3
			build := func() (*System, *loopTrace) {
				var s *System
				var err error
				if tc.mix == "" {
					s, err = NewSingle("gcc", cfg)
				} else {
					s, err = NewMix(tc.mix, cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				lt := &loopTrace{}
				lt.attach(s)
				return s, lt
			}
			s, got := build()
			res, err := s.RunCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			o, want := build()
			oracle, err := o.runFullScan(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rj, _ := json.Marshal(res)
			oj, _ := json.Marshal(oracle)
			if string(rj) != string(oj) {
				t.Errorf("Result differs from the scan loop's:\nrun:  %.300s\nscan: %.300s", rj, oj)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("hook sequences differ: run %d progress / %d epochs / %d phases, scan %d / %d / %d",
					len(got.progress), len(got.epochs), len(got.phases), len(want.progress), len(want.epochs), len(want.phases))
			}
			if len(got.progress) < 3 || len(got.epochs) < 2 {
				t.Fatalf("run crossed %d progress and %d epoch boundaries: too short to compare", len(got.progress), len(got.epochs))
			}
		})
	}
}
