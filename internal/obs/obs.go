// Package obs is morcd's stdlib-only distributed tracing layer: a
// Dapper-style span model, a bounded in-memory span store, W3C
// traceparent propagation for every HTTP hop (client → coordinator →
// peer), and JSON/NDJSON trace export.
//
// Design constraints, in order:
//
//   - The deterministic simulation core must stay wall-clock free.
//     obs therefore never reaches into internal/sim; sim-phase spans
//     are derived at the service layer from sim's instruction-count
//     hooks (System.OnPhase), and only the service layer stamps times.
//   - Span *tree shape* — hierarchy, names, services, attributes — must
//     be byte-deterministic for same-seed runs (ShapeOf), which is why
//     IDs and timestamps are excluded from the shape and why callers
//     must never put run-varying values (job IDs, ports) into
//     attributes on deterministic paths.
//   - Memory is bounded: the Store evicts whole traces FIFO beyond
//     maxTraces and drops (but counts) spans beyond maxSpansPerTrace.
//
// Span and trace IDs are random (crypto/rand); obs is deliberately
// outside the deterministic core that morclint's dettaint source rule
// covers.
package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// TraceID is a W3C trace-id: 16 bytes, rendered as 32 lowercase hex
// digits. The all-zero value is invalid per the spec and doubles as
// "no trace" here.
type TraceID [16]byte

// SpanID is a W3C parent-id/span-id: 8 bytes, 16 hex digits.
type SpanID [8]byte

// String renders the id as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated half of a span: enough to parent a
// child span on the far side of an HTTP hop.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both ids are non-zero (the W3C validity rule).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// NewRoot mints a fresh root span context with random ids. CLI clients
// use it to originate a trace they cannot store themselves; the server
// synthesizes their submit span from the propagated context (see
// Tracer.SynthesizeRoot).
func NewRoot() SpanContext {
	var sc SpanContext
	mustRand(sc.TraceID[:])
	mustRand(sc.SpanID[:])
	return sc
}

// mustRand fills b from crypto/rand; like the stdlib's own callers it
// treats failure as unrecoverable (it cannot happen on supported
// platforms).
func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic("obs: crypto/rand failed: " + err.Error())
	}
}
