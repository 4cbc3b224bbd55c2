// Package mem models the off-chip memory system: a first-come-first-
// served (FCFS) memory controller in front of closed-page DDR3-1600
// (Table 5), with the per-core bandwidth caps that create the
// bandwidth-wall regime the paper studies (§5's 1600/400/100/12.5 MB/s
// per-thread operating points).
//
// Timing model: every transfer occupies the channel for its serialized
// duration at the configured bandwidth (the scarce resource), after a
// fixed closed-page access latency. Requests queue FCFS behind the
// channel's next-free time, so queueing delay emerges naturally when
// demand exceeds the cap.
package mem

import "fmt"

// Config describes one memory channel (or one core's slice of one).
type Config struct {
	// ClockHz is the core clock all latencies are expressed in (2GHz).
	ClockHz float64
	// BandwidthBytesPerSec caps sustained throughput.
	BandwidthBytesPerSec float64
	// AccessLatency is the closed-page DRAM access time in core cycles.
	// DDR3-1600 9-9-9 ≈ tRCD+CL+tRP ≈ 34ns ≈ 68 cycles at 2GHz, plus
	// controller overhead.
	AccessLatency uint64
}

// Stats are the controller's counters.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadBytes   uint64
	WriteBytes  uint64
	QueueCycles uint64 // total cycles requests waited for the channel
	BusyCycles  uint64 // total cycles the channel transferred data
}

// TotalBytes returns all bytes moved in either direction.
func (s *Stats) TotalBytes() uint64 { return s.ReadBytes + s.WriteBytes }

// Controller is an FCFS bandwidth-limited memory channel.
type Controller struct {
	cfg           Config
	cyclesPerByte float64
	nextFree      uint64
	st            Stats
}

// NewController builds a channel.
func NewController(cfg Config) *Controller {
	if cfg.ClockHz <= 0 || cfg.BandwidthBytesPerSec <= 0 {
		panic(fmt.Sprintf("mem: bad config %+v", cfg))
	}
	return &Controller{cfg: cfg, cyclesPerByte: cfg.ClockHz / cfg.BandwidthBytesPerSec}
}

// Config returns the channel configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns the counters.
func (c *Controller) Stats() *Stats { return &c.st }

// transfer schedules n bytes at cycle now; returns (start, done).
func (c *Controller) transfer(now uint64, n int) (start, done uint64) {
	start = now
	if c.nextFree > start {
		start = c.nextFree
	}
	dur := uint64(float64(n) * c.cyclesPerByte)
	if dur == 0 {
		dur = 1
	}
	c.nextFree = start + dur
	c.st.QueueCycles += start - now
	c.st.BusyCycles += dur
	return start, start + dur
}

// Read schedules a read of n bytes from addr issued at cycle now and
// returns the cycle its data is fully delivered (the requesting core
// blocks until then).
func (c *Controller) Read(now uint64, addr uint64, n int) (done uint64) {
	_, end := c.transfer(now, n)
	c.st.Reads++
	c.st.ReadBytes += uint64(n)
	return end + c.cfg.AccessLatency
}

// Write schedules a write-back of n bytes to addr at cycle now. Writes
// consume channel bandwidth (delaying later reads) but no core blocks on
// them.
func (c *Controller) Write(now uint64, addr uint64, n int) {
	c.transfer(now, n)
	c.st.Writes++
	c.st.WriteBytes += uint64(n)
}

// NextFree exposes the channel's next idle cycle (tests and the
// simulator's fairness checks).
func (c *Controller) NextFree() uint64 { return c.nextFree }
