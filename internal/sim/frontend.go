package sim

import (
	"morc/internal/cache"
	"morc/internal/trace"
)

// op is one access as a core's front end hands it to the back end: the
// trace's access, the private L1's verdict on it, and a store's chunk.
type op struct {
	addr   uint64 // the access's address
	victim uint64 // the dirty line a miss evicts from the L1 (opWriteBack)
	value  uint64 // a store's 8 bytes, little-endian
	nonMem uint32 // non-memory instructions before the access
	slot   uint32 // the L1 slot the access hits or fills
	off    uint8  // a store's byte offset in its line
	flags  uint8  // opStore, opMiss, opWriteBack
}

// op flags.
const (
	opStore     uint8 = 1 << iota // the access is a store
	opMiss                        // it misses the L1, which fills its slot
	opWriteBack                   // the fill evicts a dirty line, victim
)

// frontEnd is the part of a core that depends only on its own access
// stream: the trace generator, the tags and recency of its private L1,
// and the value model's draws (a store's chunk, a missed line's
// pristine bytes). The L1 is private and never back-invalidated, so
// which accesses hit, which slots they use and which victims are dirty
// follow from the stream alone; so does each store's chunk, and a
// pristine line is a function of the seed and the address. The back
// end (System.stepAccess and serviceMiss) holds everything else.
type frontEnd struct {
	gen  *trace.SynthGen
	memv *trace.Memory // its value model: StoreChunk and Pristine
	l1   cache.Tags
	// instr counts the instructions of the ops made so far. The stream
	// ends where RunCtx stops the core: the first op that takes instr to
	// warmup ends the warmup, and the first that takes it to end, measure
	// past that, ends the stream.
	instr, warmup, measure, end uint64
	warm                        bool
}

func newFrontEnd(cfg Config, gen *trace.SynthGen, memv *trace.Memory) *frontEnd {
	return &frontEnd{
		gen:     gen,
		memv:    memv,
		l1:      cache.NewTags(cfg.L1Bytes, cfg.L1Ways, cache.LRU),
		warmup:  cfg.WarmupInstr,
		measure: cfg.MeasureInstr,
	}
}

// next makes the core's next op into o: the trace's next access, its
// hit or fill in the L1's tags (dirty on a store), and a store's chunk.
// It writes every field of o; filling o in place, rather than returning
// it, keeps the op's fields out of a copy through the stack.
func (f *frontEnd) next(o *op) {
	a := f.gen.Next()
	f.instr += a.Instructions()
	store := a.Kind == trace.Store
	slot, hit, victim, writeBack := f.l1.Access(a.Addr, store)
	var flags uint8
	if !hit {
		flags = opMiss
	}
	if writeBack {
		flags |= opWriteBack
	}
	o.addr, o.victim, o.nonMem, o.slot = a.Addr, victim, a.NonMem, uint32(slot)
	if store {
		off, v := f.memv.StoreChunk(a.Addr)
		o.off, o.value, o.flags = uint8(off), v, flags|opStore
		return
	}
	o.off, o.value, o.flags = 0, 0, flags
}

// ended reports whether the stream is over: RunCtx stops the core at the
// first access that takes it to WarmupInstr, then at the first that
// takes it MeasureInstr past that.
func (f *frontEnd) ended() bool {
	if !f.warm {
		if f.instr < f.warmup {
			return false
		}
		f.warm, f.end = true, f.instr+f.measure
	}
	return f.instr >= f.end
}

// fill runs the front end into b until b holds its most ops or lines
// or the stream ends, synthesizing the pristine line of every miss, and
// reports whether the stream has ended.
func (f *frontEnd) fill(b *batch) (ended bool) {
	b.n = 0
	lines := 0
	for b.n < len(b.ops) && lines < b.maxLines() {
		if f.ended() {
			return true
		}
		o := &b.ops[b.n]
		f.next(o)
		if o.flags&opMiss != 0 {
			f.memv.Pristine(b.line(lines), o.addr)
			lines++
		}
		b.n++
	}
	return f.ended()
}
