package obs

import (
	"sync"
)

// Default store bounds: enough for every job a morcd instance keeps in
// its own (also bounded) job table, with every job's spans fitting
// comfortably under the per-trace cap.
const (
	DefaultMaxTraces        = 512
	DefaultMaxSpansPerTrace = 1024
)

// Store is the bounded in-memory span store behind a tracer (or several
// — coordinator and server tracers may share one). Whole traces are
// evicted FIFO beyond maxTraces; spans beyond maxSpansPerTrace within
// one trace are dropped and counted, never silently lost.
type Store struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[TraceID]*traceBuf
	order     []TraceID // insertion order, for FIFO eviction
}

type traceBuf struct {
	spans   []*Span
	dropped int
}

// NewStore builds a store; non-positive bounds use the defaults.
func NewStore(maxTraces, maxSpansPerTrace int) *Store {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &Store{
		maxTraces: maxTraces,
		maxSpans:  maxSpansPerTrace,
		traces:    make(map[TraceID]*traceBuf),
	}
}

// add records a span under its trace, creating (and possibly evicting)
// as needed.
func (st *Store) add(id TraceID, sp *Span) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(id, sp)
}

// addOnce is add, skipped when the trace already holds a span with the
// same span id (synthesized roots on client retries).
func (st *Store) addOnce(id TraceID, sp *Span) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if tb := st.traces[id]; tb != nil {
		for _, have := range tb.spans {
			if have.SpanID == sp.SpanID {
				return
			}
		}
	}
	st.addLocked(id, sp)
}

func (st *Store) addLocked(id TraceID, sp *Span) {
	tb := st.traces[id]
	if tb == nil {
		for len(st.traces) >= st.maxTraces && len(st.order) > 0 {
			delete(st.traces, st.order[0])
			st.order = st.order[1:]
		}
		tb = &traceBuf{}
		st.traces[id] = tb
		st.order = append(st.order, id)
	}
	if len(tb.spans) >= st.maxSpans {
		tb.dropped++
		return
	}
	tb.spans = append(tb.spans, sp)
}

// mutate applies fn to a span record under the store lock, serializing
// SetAttr/End against concurrent Exports. Records that were dropped at
// add time are mutated unshared, which is harmless.
func (st *Store) mutate(rec *Span, fn func(*Span)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	fn(rec)
}

// Export returns a deep copy of one trace's spans in creation order, or
// ok == false if the trace is unknown (never recorded, or evicted).
func (st *Store) Export(id TraceID) (TraceExport, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tb := st.traces[id]
	if tb == nil {
		return TraceExport{}, false
	}
	out := TraceExport{TraceID: id.String(), Dropped: tb.dropped}
	out.Spans = make([]Span, len(tb.spans))
	for i, sp := range tb.spans {
		out.Spans[i] = *sp
		if sp.Attrs != nil {
			attrs := make(map[string]string, len(sp.Attrs))
			for k, v := range sp.Attrs {
				attrs[k] = v
			}
			out.Spans[i].Attrs = attrs
		}
	}
	return out, true
}

// Len reports how many traces the store currently holds.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}
