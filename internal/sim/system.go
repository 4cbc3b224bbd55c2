package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"morc/internal/cache"
	"morc/internal/compress/cpack"
	"morc/internal/mem"
	"morc/internal/stats"
	"morc/internal/telemetry"
	"morc/internal/trace"
)

// missLatBounds are the per-core miss-latency histogram buckets in core
// cycles: LLC hits land in the first few, DRAM accesses around 100-200,
// and bandwidth-wall queueing pushes into the thousands.
var missLatBounds = []float64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// coreState is one in-order core. Its front end (fe) makes its accesses;
// the rest is the back end's: the clocks and counters, the bytes of the
// private L1 and the core's backing store.
type coreState struct {
	id int
	fe *frontEnd
	// memv is the core's backing store (ReadWritten, WriteLine). Its
	// value model (StoreChunk, Pristine) is fe's: the back end
	// synthesizes with it only while it runs fe inline.
	memv *trace.Memory
	// l1 holds the L1's bytes, LineSize per slot of fe's tags.
	l1 []byte
	// fetch receives a written-back line read from memory on an LLC
	// miss, victim a dirty L1 victim on its way to the LLC; the LLC and
	// the L1 copy what they keep.
	fetch, victim [cache.LineSize]byte

	// batch is the run of ops being consumed while a helper runs the
	// front ends ahead, next its next op and line its next pristine
	// line; nil when the back end runs fe one access at a time.
	batch      *batch
	next, line int

	now    uint64 // local cycle count
	instr  uint64
	target uint64 // run until instr reaches this

	// measurement-window counters
	refs     uint64
	l1Misses uint64
	stall    uint64 // cycles blocked on L1 misses
	// missLat is the online per-miss service-latency distribution
	// (count, sum, and per-bucket sums), replacing the old unbounded
	// one-entry-per-miss slice: the CGMT residual is computed piecewise
	// from the buckets and the histogram itself is the per-core Figure 14
	// metric on CoreResult.
	missLat   *stats.Histogram
	startCyc  uint64
	startInst uint64
}

// System wires cores, the shared LLC, and the memory channel together.
type System struct {
	cfg    Config
	cores  []*coreState
	llc    cache.LLC
	memctl *mem.Controller

	ratio     *stats.Sampler
	sampleAt  uint64
	llcSnap   cache.Stats
	memSnap   mem.Stats
	measuring bool
	tel       *telemetry.Recorder

	started bool // RunCtx has begun

	// ahead runs the front ends on a helper goroutine while RunCtx runs,
	// when aheadFor decides one pays; nil otherwise. For tests,
	// aheadMode and batchCap override that decision and the batch size,
	// and onHelperFill runs on the helper before each batch it fills.
	ahead        *ahead
	aheadMode    aheadMode
	batchCap     int
	onHelperFill func(core int)

	// OnProgress, when set, is called at most every checkEvery accesses
	// with the instructions retired so far (clamped to the total) and the
	// total target across warmup and measurement (all cores), and exactly
	// once with (total, total) when the run completes. Used by morcd to
	// report job progress; must be cheap and must not call back into the
	// System.
	OnProgress func(done, total uint64)

	// OnEpoch, when set before RunCtx, receives each completed telemetry
	// epoch synchronously from the simulation loop (Config.Telemetry must
	// be enabled). morcd uses it to stream epochs to SSE subscribers; it
	// must be cheap and must not call back into the System.
	OnEpoch func(telemetry.Epoch)

	// OnPhase, when set before RunCtx, receives each simulation phase
	// transition synchronously: every event marks the BEGINNING of a
	// phase on the instruction clock and implicitly ends the previous
	// one (the run's end ends the last). A run announces "warmup" then
	// "measure". Events carry instruction counts only — no wall-clock
	// enters the deterministic core; morcd stamps times at the service
	// layer to build sim-phase trace spans. Same contract as the other
	// hooks: cheap, and no calling back into the System.
	OnPhase func(PhaseEvent)
}

// PhaseEvent is one OnPhase notification. Instr is total instructions
// retired across cores when the phase begins. Identical same-seed runs
// produce identical event sequences.
type PhaseEvent struct {
	Phase string
	Instr uint64
}

// emitPhase announces a phase beginning at the current instruction
// position. Only called at phase boundaries, never on the per-access
// path.
func (s *System) emitPhase(phase string) {
	if s.OnPhase == nil {
		return
	}
	var instr uint64
	for _, c := range s.cores {
		instr += c.instr
	}
	s.OnPhase(PhaseEvent{Phase: phase, Instr: instr})
}

// checkEvery is how many accesses pass between context-cancellation and
// progress checks in run: frequent enough to cancel a job in well under a
// second, rare enough to be invisible in the simulation hot loop.
const checkEvery = 4096

// New builds a system running the given per-core workloads (len must
// equal cfg.Cores).
func New(cfg Config, programs []trace.Profile) *System {
	if len(programs) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d programs for %d cores", len(programs), cfg.Cores))
	}
	s := &System{
		cfg: cfg,
		llc: cfg.NewLLC(),
		memctl: mem.NewController(mem.Config{
			ClockHz:              cfg.ClockHz,
			BandwidthBytesPerSec: cfg.BWPerCore * float64(cfg.Cores),
			AccessLatency:        cfg.MemLatency,
		}),
		ratio: stats.NewSampler(cfg.SampleEvery),
	}
	for i, p := range programs {
		memv := trace.NewMemory(p)
		s.cores = append(s.cores, &coreState{
			id:   i,
			fe:   newFrontEnd(cfg, trace.NewSynthGen(p), memv),
			memv: memv,
			l1:   make([]byte, cfg.L1Bytes),
		})
	}
	return s
}

// LLC exposes the cache organization for experiment-specific probes
// (symbol statistics, latency histograms, invalid fractions).
func (s *System) LLC() cache.LLC { return s.llc }

// Memory exposes the memory controller.
func (s *System) Memory() *mem.Controller { return s.memctl }

// step executes core c's next access: the op its front end makes, or
// the next one of its batch while a helper runs the front ends ahead.
func (s *System) step(c *coreState) {
	if c.batch != nil {
		if c.next == c.batch.n {
			s.ahead.refill(c)
		}
		o := &c.batch.ops[c.next]
		c.next++
		if s.stepAccess(c, o) {
			pristine := c.batch.line(c.line)
			c.line++
			s.serviceMiss(c, o, pristine)
		}
		return
	}
	var o op
	c.fe.next(&o)
	if s.stepAccess(c, &o) {
		s.serviceMiss(c, &o, nil)
	}
}

// stepAccess executes the back end's hit path of one op: the per-core
// clocks and counters, and a store hit's chunk, written into the L1's
// bytes. It touches no cross-core state. On an L1 miss it reports true
// for serviceMiss to complete the op; the core is then mid-access
// (clocks advanced, the L1's bytes untouched) until serviceMiss runs.
func (s *System) stepAccess(c *coreState, o *op) (miss bool) {
	n := uint64(o.nonMem) + 1
	c.now += n
	c.instr += n
	c.refs++
	if o.flags&opMiss != 0 {
		return true
	}
	if o.flags&opStore != 0 {
		binary.LittleEndian.PutUint64(c.l1[int(o.slot)*cache.LineSize+int(o.off):], o.value)
	}
	return false
}

// serviceMiss is the miss path: it completes an L1 miss begun by
// stepAccess with the LLC lookup, memory access, the fill of the L1's
// bytes (and a store's chunk), the write-back of a dirty L1 victim, and
// the core's stall accounting. Everything that reads or writes
// cross-core state (the shared LLC, the memory controller's bandwidth
// queues) happens here, as does most of a compressed LLC's host time;
// keeping it out of stepAccess leaves the per-access hit path short,
// and lets profiles and the hotalloc lint pass name the two paths
// apart. pristine is the line memory holds at o.addr unless it was
// written back, when the front end synthesized it; nil makes llcAccess
// synthesize it on an LLC miss.
func (s *System) serviceMiss(c *coreState, o *op, pristine []byte) {
	store := o.flags&opStore != 0
	data, lat := s.llcAccess(c, o.addr, store, pristine)
	off := int(o.slot) * cache.LineSize
	line := c.l1[off : off+cache.LineSize]
	wb := o.flags&opWriteBack != 0
	if wb {
		copy(c.victim[:], line)
	}
	// data may be the LLC's own bytes: the L1 copies them before the
	// victim's write-back can overwrite them.
	copy(line, data)
	if store {
		binary.LittleEndian.PutUint64(line[o.off:], o.value)
	}
	if wb {
		s.handleWBs(c, s.llc.WriteBack(o.victim, c.victim[:]))
	}
	s.block(c, lat)
}

// block charges an L1-miss service latency to the core.
func (s *System) block(c *coreState, lat uint64) {
	c.now += lat
	c.stall += lat
	c.l1Misses++
	if s.measuring {
		c.missLat.Add(float64(lat))
	}
}

// llcAccess services an L1 miss: LLC lookup, then memory on an LLC miss.
// Non-inclusive LLCs do not allocate on store misses (§5.4.2); the line
// arrives later as an L1 write-back. On an LLC hit data is the LLC's
// read result, valid until the LLC's next Fill or WriteBack; on a miss
// it is the core's fetch buffer, valid until its next LLC miss, or
// pristine when memory holds the pristine line.
func (s *System) llcAccess(c *coreState, addr uint64, isStore bool, pristine []byte) (data []byte, lat uint64) {
	res := s.llc.Read(addr)
	lat = uint64(s.cfg.LLCLatency) + uint64(res.ExtraCycles)
	if res.Hit {
		return res.Data, lat
	}
	data = c.fetch[:]
	if !c.memv.ReadWritten(data, addr) {
		if pristine != nil {
			data = pristine
		} else {
			c.memv.Pristine(data, addr)
		}
	}
	done := s.memctl.Read(c.now+lat, addr, s.transferBytes(data))
	lat = done - c.now
	if !isStore || s.cfg.Inclusive {
		s.handleWBs(c, s.llc.Fill(addr, data))
	}
	return data, lat
}

// handleWBs sends LLC-evicted dirty lines to memory: backing-store update
// plus write bandwidth.
func (s *System) handleWBs(c *coreState, wbs []cache.Writeback) {
	for _, wb := range wbs {
		c.memv.WriteLine(wb.Addr, wb.Data)
		s.memctl.Write(c.now, wb.Addr, s.transferBytes(wb.Data))
	}
}

// transferBytes is the channel occupancy of moving one line: 64 bytes,
// or the C-Pack-compressed size under link compression (never more than
// the raw line; expanding lines go uncompressed).
func (s *System) transferBytes(data []byte) int {
	if !s.cfg.LinkCompression {
		return cache.LineSize
	}
	n := (cpack.CompressedBits(data) + 7) / 8
	if n > cache.LineSize {
		n = cache.LineSize
	}
	if n < 1 {
		n = 1
	}
	return n
}

// run advances all cores (oldest first: least local time, the lowest
// index on a tie) until each reaches its per-core instruction target, or
// ctx is cancelled (checked every checkEvery accesses so the hot loop
// stays select-free).
func (s *System) run(ctx context.Context) error {
	done := ctx.Done()
	steps := 0
	// ready holds the cores short of their target; only the one stepped
	// moves, so each step costs a sift-down of the root. total is the
	// instruction count across all cores.
	ready := make(coreHeap, 0, len(s.cores))
	var total uint64
	for _, c := range s.cores {
		total += c.instr
		if c.instr < c.target {
			ready = append(ready, c)
		}
	}
	ready.init()
	for len(ready) > 0 {
		pick := ready[0]
		before := pick.instr
		s.step(pick)
		total += pick.instr - before
		if pick.instr >= pick.target {
			ready.pop()
		} else {
			ready.down(0)
		}
		if steps++; steps >= checkEvery {
			steps = 0
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if s.OnProgress != nil {
				target := s.totalTarget()
				s.OnProgress(clampProgress(total, target), target)
			}
		}
		if s.measuring {
			meas := total - s.sampleAt
			// Ratio() walks the whole cache; only compute it when the
			// sampler will actually record.
			if s.ratio.Due(meas) {
				r := s.llc.Ratio()
				s.ratio.Tick(meas, r)
				if s.tel != nil {
					s.tel.ObserveRatio(r, s.ratio.Count())
				}
			}
			// The telemetry epoch hook rides the same accounting: one nil
			// check when disabled, one comparison between boundaries.
			if s.tel != nil && s.tel.Due(meas) {
				s.tel.Record(s.telemetrySample(meas))
			}
		}
	}
	return nil
}

// coreHeap is a min-heap of cores on (now, id): run's pick order.
type coreHeap []*coreState

func (h coreHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	return a.now < b.now || a.now == b.now && a.id < b.id
}

func (h coreHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the heap order below i after h[i] grew.
func (h coreHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes the root.
func (h *coreHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	h.down(0)
}

// totalTarget is the whole run's instruction count across all cores:
// warmup plus measurement, the denominator for progress reporting.
func (s *System) totalTarget() uint64 {
	return uint64(len(s.cores)) * (s.cfg.WarmupInstr + s.cfg.MeasureInstr)
}

// clampProgress bounds a progress numerator to its total: cores may
// overshoot their per-core target by one access's instruction count, and
// progress must never exceed (and later have to back off from) the
// total.
func clampProgress(instr, total uint64) uint64 {
	if instr > total {
		return total
	}
	return instr
}

// Run executes warmup then the measurement window and returns the result.
func (s *System) Run() Result {
	res, err := s.RunCtx(context.Background())
	if err != nil {
		// Background contexts never cancel; keep the historical
		// infallible signature for the experiment suite.
		panic("sim: Run cancelled: " + err.Error())
	}
	return res
}

// RunCtx is Run under a context: warmup, then the measurement window,
// returning the collected result. It returns the error Config.Validate
// reports before simulating anything. If ctx is cancelled mid-run it
// stops within checkEvery accesses and returns ctx.Err() with a zero
// Result; the System's counters stay internally consistent (each core
// simply halts short of its target) but the run cannot be resumed.
//
// While it runs, a helper goroutine may run the cores' front ends ahead
// of the loop (aheadFor); RunCtx joins it before it returns, and raises
// a panic on it again on its own goroutine. A System runs once: the
// front ends may have run past where a cancelled run stopped, so a
// second RunCtx returns an error.
func (s *System) RunCtx(ctx context.Context) (Result, error) {
	if err := s.cfg.Validate(); err != nil {
		return Result{}, err
	}
	if s.started {
		return Result{}, errors.New("sim: RunCtx runs a System once")
	}
	s.started = true
	running.Add(1)
	defer running.Add(-1)
	if s.ahead = s.aheadFor(); s.ahead != nil {
		defer s.ahead.join(s)
	}
	s.emitPhase("warmup")
	for _, c := range s.cores {
		c.target = s.cfg.WarmupInstr
	}
	if err := s.run(ctx); err != nil {
		return Result{}, err
	}
	s.beginMeasurement()
	s.emitPhase("measure")
	for _, c := range s.cores {
		c.target = c.instr + s.cfg.MeasureInstr
	}
	if s.cfg.Telemetry.Enabled() {
		s.tel = telemetry.NewRecorder(s.cfg.Telemetry, s.cfg.Scheme.String(), s.OnEpoch)
		s.tel.Begin(s.telemetrySample(0))
	}
	if err := s.run(ctx); err != nil {
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

// beginMeasurement snapshots counters so the measurement window reports
// deltas, resets the per-core window counters, and opens the window.
// RunCtx calls it once, after warmup.
func (s *System) beginMeasurement() {
	s.llcSnap = *s.llc.Stats()
	s.memSnap = *s.memctl.Stats()
	s.ratio = stats.NewSampler(s.cfg.SampleEvery)
	var sampleBase uint64
	for _, c := range s.cores {
		c.startCyc = c.now
		c.startInst = c.instr
		c.refs = 0
		c.l1Misses = 0
		c.stall = 0
		c.missLat = stats.NewHistogram(missLatBounds)
		sampleBase += c.instr
	}
	s.sampleAt = sampleBase
	s.measuring = true
}

// telemetrySample snapshots every counter the telemetry layer records,
// at measurement-window instruction clock meas. Only called at epoch
// boundaries, so the full-cache Ratio walk and the Probed gauges are off
// the per-access path.
func (s *System) telemetrySample(meas uint64) telemetry.Sample {
	smp := telemetry.Sample{
		Instr: meas,
		LLC:   *s.llc.Stats(),
		Mem:   *s.memctl.Stats(),
		Ratio: s.llc.Ratio(),
	}
	smp.Cores = make([]telemetry.CoreSample, len(s.cores))
	for i, c := range s.cores {
		smp.Cores[i] = telemetry.CoreSample{Instr: c.instr, Cycles: c.now, Stall: c.stall}
	}
	if p, ok := s.llc.(cache.Probed); ok {
		smp.Probes = p.Probes()
	}
	return smp
}
