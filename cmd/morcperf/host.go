package main

import "time"

// The host a run lands on changes speed by ±15-35% over minutes, as
// other tenants load the machine (README.md). Reps therefore report
// host CPU work in reference-host seconds: the host seconds measured,
// scaled by how fast a fixed probe ran around the rep against how fast
// it runs on the reference host. The probe is a dependent splitmix64
// chain, pure integer arithmetic in this package, so no change to the
// simulator or the service can speed it up. Over 10-20 s windows its
// time tracked the simulator's at r = 0.6-0.95, depending on the hour;
// a probe of random reads and writes over 32 MB tracked no better.

// probeIters is the probe's fixed work.
const probeIters = 10_000_000

// probeRefSec is the probe's median time on the reference host.
const probeRefSec = 0.044

var probeSink uint64

// probe times one run of the fixed probe work, in seconds.
func probe() float64 {
	start := time.Now()
	x := uint64(0)
	for range probeIters {
		x = splitmix(x)
	}
	probeSink += x
	return time.Since(start).Seconds()
}

// hostScale converts a rep's host seconds to reference-host seconds.
func (r repResult) hostScale() float64 { return probeRefSec / r.ProbeSec }
