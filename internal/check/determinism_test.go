package check_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"morc/internal/server"
	"morc/internal/sim"
)

// detConfig is the shared simulation window for the determinism tests,
// applied identically as direct sim.Config fields and as morcd config
// overrides.
const (
	detWarmup  = 60_000
	detMeasure = 90_000
	detSample  = 30_000
)

func detSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.MORC
	cfg.WarmupInstr = detWarmup
	cfg.MeasureInstr = detMeasure
	cfg.SampleEvery = detSample
	return cfg
}

func resultJSON(t *testing.T, r *sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunSingleDeterminism pins that the simulator is a pure function
// of (workload, config): two runs produce byte-identical Result JSON.
func TestRunSingleDeterminism(t *testing.T) {
	cfg := detSimConfig()
	r1, err := sim.RunSingleCtx(context.Background(), "gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.RunSingleCtx(context.Background(), "gcc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := resultJSON(t, &r1), resultJSON(t, &r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("two identical runs diverged:\n%s\n%s", j1, j2)
	}
}

// TestServerJobMatchesDirectRun pins that the morcd job path — quick
// budget plus JSON config overrides — runs the exact same simulation as
// a direct sim.RunSingle with the equivalent Config: the Result JSON
// must be byte-identical, and so must the telemetry NDJSON the CLI and
// morcd emit when the job records a series.
func TestServerJobMatchesDirectRun(t *testing.T) {
	srv := server.New(server.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	for _, tc := range []struct {
		name      string
		telemetry uint64
	}{{"plain", 0}, {"telemetry", 25_000}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := detSimConfig()
			cfg.Telemetry.Every = tc.telemetry
			direct, err := sim.RunSingleCtx(context.Background(), "gcc", cfg)
			if err != nil {
				t.Fatal(err)
			}
			job, err := srv.Submit(server.JobSpec{
				Workload:  "gcc",
				Scheme:    sim.MORC,
				Telemetry: tc.telemetry,
				Config: json.RawMessage(
					`{"WarmupInstr": 60000, "MeasureInstr": 90000, "SampleEvery": 30000}`),
			})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-job.Done():
			case <-time.After(2 * time.Minute):
				t.Fatal("job did not finish")
			}
			v := job.View()
			if v.Status != server.StatusDone {
				t.Fatalf("job finished %s: %s", v.Status, v.Error)
			}

			dj, jj := resultJSON(t, &direct), resultJSON(t, v.Result)
			if !bytes.Equal(dj, jj) {
				t.Fatalf("server job diverged from direct run:\ndirect %s\nserver %s", dj, jj)
			}
			dn, jn := telemetryNDJSON(t, &direct), telemetryNDJSON(t, v.Result)
			if (dn != nil) != (tc.telemetry > 0) {
				t.Fatalf("direct run recorded telemetry: %v, want %v", dn != nil, tc.telemetry > 0)
			}
			if !bytes.Equal(dn, jn) {
				t.Errorf("telemetry NDJSON differs:\ndirect %.300s\nserver %.300s", dn, jn)
			}
		})
	}
}

// telemetryNDJSON is the result's telemetry series as the CLI and morcd
// serialize it, or nil when the run recorded none.
func telemetryNDJSON(t *testing.T, r *sim.Result) []byte {
	t.Helper()
	if r.Telemetry == nil {
		return nil
	}
	var b bytes.Buffer
	if err := r.Telemetry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
