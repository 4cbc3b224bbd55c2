package sim

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"reflect"
	"sync/atomic"
	"testing"

	"morc/internal/cache"
	"morc/internal/telemetry"
	"morc/internal/trace"
)

// serial is the simulator's step as it was before the cores' front and
// back ends split, kept as their differential oracle: each access runs
// the trace generator, a full-line L1 (a cache.SetAssoc holding every
// line's bytes), Memory.ReadLineInto on an LLC miss and ApplyStore on
// the line a store mutates, one access at a time on the loop's
// goroutine. It shares the System's LLC, memory controller, observers
// and block/handleWBs accounting, and each core's generator and value
// model; it never touches a core's front-end L1 tags or batches.
type serial struct {
	s            *System
	l1           []*cache.SetAssoc
	store, fetch [][cache.LineSize]byte
}

func newSerial(s *System) *serial {
	o := &serial{
		s:     s,
		store: make([][cache.LineSize]byte, len(s.cores)),
		fetch: make([][cache.LineSize]byte, len(s.cores)),
	}
	for range s.cores {
		o.l1 = append(o.l1, cache.NewSetAssoc(s.cfg.L1Bytes, s.cfg.L1Ways, cache.LRU))
	}
	return o
}

func (o *serial) step(c *coreState) {
	if a, miss := o.stepAccess(c); miss {
		o.serviceMiss(c, a)
	}
}

func (o *serial) stepAccess(c *coreState) (a trace.Access, miss bool) {
	a = c.fe.gen.Next()
	c.now += uint64(a.NonMem) + 1
	c.instr += a.Instructions()
	c.refs++
	l1 := o.l1[c.id]
	if a.Kind == trace.Load {
		return a, !l1.Read(a.Addr).Hit
	}
	if res := l1.Read(a.Addr); res.Hit {
		c.memv.ApplyStore(res.Data, a.Addr)
		l1.Update(a.Addr, res.Data, true)
		return a, false
	}
	return a, true
}

func (o *serial) serviceMiss(c *coreState, a trace.Access) {
	if a.Kind == trace.Load {
		data, lat := o.llcAccess(c, a.Addr, false)
		o.l1Insert(c, a.Addr, data, false)
		o.s.block(c, lat)
		return
	}
	data, lat := o.llcAccess(c, a.Addr, true)
	store := o.store[c.id][:]
	copy(store, data)
	c.memv.ApplyStore(store, a.Addr)
	o.l1Insert(c, a.Addr, store, true)
	o.s.block(c, lat)
}

func (o *serial) llcAccess(c *coreState, addr uint64, isStore bool) (data []byte, lat uint64) {
	s := o.s
	res := s.llc.Read(addr)
	lat = uint64(s.cfg.LLCLatency) + uint64(res.ExtraCycles)
	if res.Hit {
		return res.Data, lat
	}
	data = o.fetch[c.id][:]
	c.memv.ReadLineInto(data, addr)
	done := s.memctl.Read(c.now+lat, addr, s.transferBytes(data))
	lat = done - c.now
	if !isStore || s.cfg.Inclusive {
		s.handleWBs(c, s.llc.Fill(addr, data))
	}
	return data, lat
}

func (o *serial) l1Insert(c *coreState, addr uint64, data []byte, dirty bool) {
	l1 := o.l1[c.id]
	wbs := l1.Fill(addr, data)
	if dirty {
		l1.Update(addr, data, true)
	}
	for _, wb := range wbs {
		o.s.handleWBs(c, o.s.llc.WriteBack(wb.Addr, wb.Data))
	}
}

// runScan is run as it was before the core heap and the running
// instruction total, kept as run's differential oracle: every step scans
// all cores for the oldest (the lowest index on a tie) and, while
// measuring, sums every core's instructions. It steps a core with step.
func (s *System) runScan(ctx context.Context, step func(*coreState)) error {
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
		step(pick)
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

// runFullScan is RunCtx's full-fidelity path with runScan as the loop
// and the serial step: the simulator before the heap loop and the
// front-end/back-end split.
func (s *System) runFullScan(ctx context.Context) (Result, error) {
	step := newSerial(s).step
	s.emitPhase("warmup")
	for _, c := range s.cores {
		c.target = s.cfg.WarmupInstr
	}
	if err := s.runScan(ctx, step); err != nil {
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
	if err := s.runScan(ctx, step); err != nil {
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

// checkMemoryCounters pins trace.Memory's counters to the LLC's: every
// LLC miss reads one line from memory and every line the LLC writes
// back is written to memory once, so speculative syntheses count as
// neither.
func checkMemoryCounters(t testing.TB, s *System) {
	t.Helper()
	var reads, writes uint64
	for _, c := range s.cores {
		reads += c.memv.ReadLines
		writes += c.memv.WriteLines
	}
	if st := s.llc.Stats(); reads != st.Misses || writes != st.MemWBs {
		t.Errorf("memory read %d lines and wrote %d, the LLC missed %d and wrote back %d",
			reads, writes, st.Misses, st.MemWBs)
	}
}

// llcSpy wraps a System's LLC and records what the back end asks of
// it: a digest of the address and bytes of every line it is given, the
// lines it writes back to memory, and its misses on those lines
// (rereads). A reread must carry the bytes written back, which
// Memory.ReadWritten returns, never the pristine line a front end
// synthesized for the miss ahead of time; comparing two runs' digests
// tells the two apart for every scheme, even one whose Result does not
// depend on the bytes.
type llcSpy struct {
	cache.LLC
	digest  hash.Hash64
	written map[uint64]bool // lines the LLC wrote back to memory
	rereads int             // misses on a line in written
}

// spyOn puts an llcSpy between s and its LLC.
func spyOn(s *System) *llcSpy {
	l := &llcSpy{LLC: s.llc, digest: fnv.New64a(), written: map[uint64]bool{}}
	s.llc = l
	return l
}

func (l *llcSpy) Read(addr uint64) cache.ReadResult {
	res := l.LLC.Read(addr)
	if !res.Hit && l.written[cache.LineAddr(addr)] {
		l.rereads++
	}
	return res
}

func (l *llcSpy) Fill(addr uint64, data []byte) []cache.Writeback {
	l.given('F', addr, data)
	return l.toMemory(l.LLC.Fill(addr, data))
}

func (l *llcSpy) WriteBack(addr uint64, data []byte) []cache.Writeback {
	l.given('W', addr, data)
	return l.toMemory(l.LLC.WriteBack(addr, data))
}

// Probes passes the LLC's probes on, so that epochs read as without the
// spy.
func (l *llcSpy) Probes() map[string]float64 {
	if p, ok := l.LLC.(cache.Probed); ok {
		return p.Probes()
	}
	return nil
}

// given adds a line the LLC is given by a Fill or a WriteBack (kind) to
// the digest.
func (l *llcSpy) given(kind byte, addr uint64, data []byte) {
	var head [9]byte
	head[0] = kind
	binary.LittleEndian.PutUint64(head[1:], addr)
	l.digest.Write(head[:])
	l.digest.Write(data)
}

// toMemory notes the lines the LLC writes back to memory.
func (l *llcSpy) toMemory(wbs []cache.Writeback) []cache.Writeback {
	for _, wb := range wbs {
		l.written[cache.LineAddr(wb.Addr)] = true
	}
	return wbs
}

// checkLLCInputs requires that a run's LLC was given the same lines as
// the oracle's and missed as often on lines it had written back.
func checkLLCInputs(t testing.TB, got, want *llcSpy) {
	t.Helper()
	if got.rereads != want.rereads || got.digest.Sum64() != want.digest.Sum64() {
		t.Errorf("the LLC was given other lines than the oracle's (%d misses on written-back lines, oracle %d)",
			got.rereads, want.rereads)
	}
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

// oracleCase is one configuration TestRunMatchesScanOracle runs.
type oracleCase struct {
	scheme  Scheme
	mix     string // "" runs gcc on one core
	variant string // "", "LinkCompression", "Inclusive", "WarmupInstr0" or "SmallCaches"
	// long runs boundaryCfg's windows on one core and 8k + 20k
	// instructions per core on a mix, rather than the short windows.
	long bool
}

func (tc oracleCase) String() string {
	name := tc.mix
	if name == "" {
		name = "gcc"
	}
	name = tc.scheme.String() + "/" + name
	if tc.variant != "" {
		name += "/" + tc.variant
	}
	return name
}

// config is the case's configuration. The short windows, 20k + 40k
// instructions on one core and 3k + 8k per core on a mix, still cross
// several progress, sampling and epoch boundaries, and keep the table
// (four runs a case) near a minute under the race detector.
func (tc oracleCase) config() Config {
	cfg := boundaryCfg(tc.scheme)
	switch {
	case tc.long && tc.mix != "":
		cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = 8_000, 20_000, 10_000
	case !tc.long && tc.mix == "":
		cfg.WarmupInstr, cfg.MeasureInstr = 20_000, 40_000
	case !tc.long:
		cfg.WarmupInstr, cfg.MeasureInstr, cfg.SampleEvery = 3_000, 8_000, 4_000
	}
	switch tc.variant {
	case "LinkCompression":
		cfg.LinkCompression = true
	case "Inclusive":
		cfg.Inclusive = true
	case "WarmupInstr0":
		cfg.WarmupInstr = 0
	case "SmallCaches":
		cfg.L1Bytes, cfg.LLCBytesPerCore = 4<<10, 16<<10
	}
	cfg.Telemetry.Every = cfg.MeasureInstr / 3
	return cfg
}

// oracleCases are every scheme on one core and on mix M0's sixteen,
// where ties between core clocks are common, MORC on mix M3 too, and
// MORC and Uncompressed with link compression, an inclusive LLC, no
// warmup and small caches (a 4 KB L1 and 16 KB of LLC a core, so that
// even the short windows write lines back to memory and miss on them
// again), on one core and on M0. MORC on one core, M0 and M3 and
// Uncompressed on M0, the cases the table started from, run the long
// windows.
func oracleCases() []oracleCase {
	var cases []oracleCase
	for _, sch := range AllSchemes() {
		cases = append(cases,
			oracleCase{scheme: sch, long: sch == MORC},
			oracleCase{scheme: sch, mix: "M0", long: sch == MORC || sch == Uncompressed})
	}
	cases = append(cases, oracleCase{scheme: MORC, mix: "M3", long: true})
	for _, v := range []string{"LinkCompression", "Inclusive", "WarmupInstr0", "SmallCaches"} {
		for _, sch := range []Scheme{MORC, Uncompressed} {
			cases = append(cases,
				oracleCase{scheme: sch, variant: v},
				oracleCase{scheme: sch, mix: "M0", variant: v})
		}
	}
	return cases
}

// build makes the case's system with its hooks recorded and a spy on
// its LLC.
func (tc oracleCase) build(t testing.TB) (*System, *loopTrace, *llcSpy) {
	t.Helper()
	var s *System
	var err error
	if tc.mix == "" {
		s, err = NewSingle("gcc", tc.config())
	} else {
		s, err = NewMix(tc.mix, tc.config())
	}
	if err != nil {
		t.Fatal(err)
	}
	lt := &loopTrace{}
	lt.attach(s)
	return s, lt, spyOn(s)
}

// checkRereads requires, for a SmallCaches case, that the run's LLC
// wrote lines back to memory and missed on one of them again, so that
// the memory counters and the reads of written-back lines are tested.
func (tc oracleCase) checkRereads(t testing.TB, mode string, s *System, spy *llcSpy) {
	t.Helper()
	if st := s.llc.Stats(); tc.variant == "SmallCaches" && (st.MemWBs == 0 || spy.rereads == 0) {
		t.Errorf("%s: the LLC wrote %d lines back to memory and missed %d times on one: want both above 0",
			mode, st.MemWBs, spy.rereads)
	}
}

// TestRunMatchesScanOracle runs full simulations through RunCtx and
// through the scan loop with the serial step (runFullScan), and
// requires byte-identical Result JSON, identical progress, epoch and
// phase sequences, and the same lines given to the LLC: with the front
// ends run inline, with a helper running them ahead, and with a helper
// whose batches hold three ops and one miss, so that refills, the back
// end's own fills and each stream's end come often. Every run's memory
// counters must match its LLC's, and the SmallCaches cases' LLCs must miss
// on lines they wrote back. The back end may fill every batch of a
// short run itself, so the helper's fills are required over all the
// cases of a mode.
func TestRunMatchesScanOracle(t *testing.T) {
	modes := []struct {
		name     string
		ahead    aheadMode
		batchCap int
		fills    atomic.Int64 // batches the helper filled
	}{{name: "inline", ahead: aheadOff}, {name: "ahead", ahead: aheadOn}, {name: "ahead/cap3", ahead: aheadOn, batchCap: 3}}
	for _, tc := range oracleCases() {
		t.Run(tc.String(), func(t *testing.T) {
			o, want, ospy := tc.build(t)
			oracle, err := o.runFullScan(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			checkMemoryCounters(t, o)
			tc.checkRereads(t, "oracle", o, ospy)
			oj, _ := json.Marshal(oracle)
			if len(want.progress) < 3 || len(want.epochs) < 2 {
				t.Fatalf("run crossed %d progress and %d epoch boundaries: too short to compare", len(want.progress), len(want.epochs))
			}
			for i := range modes {
				mode := &modes[i]
				s, got, spy := tc.build(t)
				s.aheadMode, s.batchCap = mode.ahead, mode.batchCap
				s.onHelperFill = func(int) { mode.fills.Add(1) }
				res, err := s.RunCtx(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				checkMemoryCounters(t, s)
				tc.checkRereads(t, mode.name, s, spy)
				checkLLCInputs(t, spy, ospy)
				if rj, _ := json.Marshal(res); string(rj) != string(oj) {
					t.Errorf("%s: Result differs from the serial oracle's:\nrun:    %.300s\noracle: %.300s", mode.name, rj, oj)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: hook sequences differ: run %d progress / %d epochs / %d phases, oracle %d / %d / %d", mode.name,
						len(got.progress), len(got.epochs), len(got.phases), len(want.progress), len(want.epochs), len(want.phases))
				}
			}
		})
	}
	for i := range modes {
		if m := &modes[i]; m.ahead == aheadOn && m.fills.Load() == 0 {
			t.Errorf("%s: the helper filled no batch in any case", m.name)
		}
	}
}

// FuzzFrontEndMatchesSerial runs a short simulation the fuzzer shapes
// (programs, scheme, one to four cores, an inclusive LLC, link
// compression, window lengths and a batch of one to sixteen ops) with a
// helper running the front ends ahead, and requires the serial oracle's
// Result JSON and LLC inputs, and matching memory counters.
func FuzzFrontEndMatchesSerial(f *testing.F) {
	f.Add(uint8(0), uint8(MORC), uint8(2), uint8(0), uint16(2000), uint16(3000))
	f.Add(uint8(5), uint8(SC2), uint8(0), uint8(0x0e), uint16(0), uint16(4000))
	f.Add(uint8(9), uint8(Uncompressed), uint8(15), uint8(0x07), uint16(700), uint16(1))
	f.Add(uint8(3), uint8(Skewed), uint8(1), uint8(0x0a), uint16(1500), uint16(2500))
	names := trace.Names()
	f.Fuzz(func(t *testing.T, prog, scheme, batchCap, flags uint8, warmup, measure uint16) {
		cfg := DefaultConfig()
		cfg.Scheme = AllSchemes()[int(scheme)%len(AllSchemes())]
		cfg.Cores = []int{1, 2, 4, 1}[flags&3]
		cfg.Inclusive = flags&4 != 0
		cfg.LinkCompression = flags&8 != 0
		cfg.WarmupInstr, cfg.MeasureInstr = uint64(warmup)%6000, 1+uint64(measure)%6000
		cfg.SampleEvery = 1000
		var progs []trace.Profile
		for i := range cfg.Cores {
			progs = append(progs, trace.MustGet(names[(int(prog)+7*i)%len(names)]))
		}
		o := New(cfg, progs)
		ospy := spyOn(o)
		want, err := o.runFullScan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		s := New(cfg, progs)
		spy := spyOn(s)
		s.aheadMode, s.batchCap = aheadOn, 1+int(batchCap)%16
		got, err := s.RunCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkMemoryCounters(t, o)
		checkMemoryCounters(t, s)
		checkLLCInputs(t, spy, ospy)
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("%+v: Result differs from the serial oracle's:\nrun:    %.300s\noracle: %.300s", cfg, gj, wj)
		}
	})
}
