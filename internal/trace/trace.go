// Package trace is a stdlib-only span tracer for the serving path: a root
// span opens when a session is created, every HTTP request and algorithm
// round attaches a child, and the LP/geometry/WAL hot paths add
// timed leaves with their key attributes. Completed traces land in the
// Tracer's bounded ring buffer and slow-trace reservoir, browsable at
// GET /debug/traces.
//
// Propagation rides context.Context: Start derives a child span from the
// span stored in the context, and returns (ctx, nil) when no trace is
// attached. Every Span method is safe on a nil receiver, so the disabled
// path — no tracer configured, or a session that lost the sampling draw —
// costs one context lookup and nothing else: no allocations, no atomics,
// no branches in the instrumented kernels (bench-pinned by
// BenchmarkDisabledSpan and the trace_disabled_span row of the hot-path
// harness).
//
// StartTimer is the one way to time a kernel that also feeds a duration
// histogram (LP solve, sampling, vertex enumeration, WAL fsync): one pair
// of clock reads always observes the histogram and, when sampled, gives the
// span the same duration.
//
// Trace and span IDs interoperate with W3C Trace Context: an inbound
// traceparent header adopts the caller's trace ID and forces sampling, and
// responses echo a traceparent carrying the request's span. IDs and
// sampling draws are deterministic functions of the per-session seed, so a
// chaos or replay run produces the same traces every time.
package trace

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"time"

	"isrl/internal/obs"
)

// TraceID identifies one trace: 16 bytes, hex-rendered, W3C-compatible.
type TraceID [16]byte

// String renders the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// ParseTraceID decodes a 32-char hex trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// SpanID identifies one span within a trace: 8 bytes, hex-rendered.
type SpanID [8]byte

// String renders the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports the invalid all-zero ID (used as the root's parent).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// Attr is one key/value annotation on a span. Values are strings; SetInt
// and SetBool format on the enabled path only.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. The zero of usefulness is a
// nil *Span: every method no-ops, which is how the disabled path stays
// free. A span is created by Start/StartLeaf/StartChild and closed by End;
// attribute writers may be called from the goroutine that owns the span at
// any point in between.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	// Mutable state below is guarded by tr.mu: spans from concurrent HTTP
	// handlers and the algorithm goroutine append into one trace.
	dur   time.Duration
	ended bool
	attrs []Attr
}

// ID returns the span's ID (zero for nil spans).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.tr.mu.Unlock()
}

// SetInt attaches an integer attribute. The formatting happens after the
// nil check, so disabled-path callers pay nothing.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatBool(v))
}

// End closes the span, fixing its duration. Double-End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endWith(time.Since(s.start))
}

// endWith closes the span with the given duration.
func (s *Span) endWith(d time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = d
	}
	s.tr.mu.Unlock()
}

// StartChild opens a child span without touching a context — the handle
// form used where the caller already holds the parent (the server keeps
// each session's root span).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id)
}

// spanKey carries the active span through a context. The type is zero-size
// so the disabled-path Value lookup allocates nothing.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start opens a child of the context's span and returns a context carrying
// it. Without an active span (tracing disabled, or the session unsampled)
// it returns (ctx, nil) after a single allocation-free context lookup.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.newSpan(name, parent.id)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartLeaf opens a child of the context's span without deriving a new
// context — the cheap form for leaf operations (one LP solve, one WAL
// fsync) that start no spans of their own.
func StartLeaf(ctx context.Context, name string) *Span {
	return SpanFromContext(ctx).StartChild(name)
}

// Timer times one interval into a histogram and, when the context is
// sampled, a span, from a single pair of clock reads: the span's start is
// the timer's start and End gives the span exactly the duration it
// observes, so the two can never disagree. It is a value, so the unsampled
// path — histogram only — allocates nothing.
type Timer struct {
	h     *obs.Histogram
	span  *Span
	start time.Time
}

// StartTimer starts timing the interval named name into h, in
// milliseconds. Like Start it returns a context carrying the new span, so
// nested kernels attach beneath it; without an active span it returns ctx
// unchanged and the timer has no span. Call End exactly once.
func StartTimer(ctx context.Context, name string, h *obs.Histogram) (context.Context, Timer) {
	ctx, s := Start(ctx, name)
	if s != nil {
		return ctx, Timer{h: h, span: s, start: s.start}
	}
	return ctx, Timer{h: h, start: time.Now()}
}

// Span returns the timer's span for attributes, or nil when unsampled.
func (t Timer) Span() *Span { return t.span }

// End stops the clock, observes the elapsed milliseconds into the
// histogram, and closes the span with the same duration.
func (t Timer) End() {
	d := time.Since(t.start)
	t.h.Observe(float64(d) / float64(time.Millisecond))
	t.span.endWith(d)
}

// Trace is one tree of spans, usually spanning a whole interactive
// session. Spans append concurrently under mu; Finish seals the trace and
// hands it to the tracer's ring buffer and slow reservoir. All methods are
// nil-receiver-safe.
type Trace struct {
	tracer *Tracer
	id     TraceID
	name   string
	start  time.Time

	mu       sync.Mutex
	spans    []*Span
	dropped  int // spans discarded past the per-trace cap
	rngState uint64
	finished bool
	dur      time.Duration
}

// ID returns the trace ID (zero for nil traces).
func (tr *Trace) ID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.id
}

// newSpan allocates and registers a span, or returns nil when the trace is
// finished or full (the per-trace span cap bounds memory on pathological
// sessions; drops are counted on the trace and in trace.spans_dropped).
func (tr *Trace) newSpan(name string, parent SpanID) *Span {
	if tr == nil {
		return nil
	}
	now := time.Now()
	tr.mu.Lock()
	if tr.finished || len(tr.spans) >= tr.tracer.maxSpans {
		tr.dropped++
		tr.mu.Unlock()
		tr.tracer.spansDropped.Inc()
		return nil
	}
	s := &Span{tr: tr, id: tr.nextSpanIDLocked(), parent: parent, name: name, start: now}
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// nextSpanIDLocked draws the next span ID from the trace's deterministic
// splitmix64 stream. Callers hold tr.mu.
func (tr *Trace) nextSpanIDLocked() SpanID {
	var id SpanID
	for {
		tr.rngState += 0x9e3779b97f4a7c15
		if v := mix64(tr.rngState); v != 0 {
			binary.BigEndian.PutUint64(id[:], v)
			return id
		}
	}
}

// Finish seals the trace: open spans are clipped at the finish instant,
// the trace moves into the tracer's ring buffer and slow reservoir, and a
// slow-threshold breach is logged. Finishing twice (or a nil trace) is a
// no-op, so every session exit path may call it unconditionally.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.tracer.finish(tr)
}

// mix64 is the splitmix64 output function: a fast, well-mixed hash used
// for deterministic ID generation and sampling draws.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// traceparentVersion is the W3C Trace Context version this package emits.
const traceparentVersion = "00"

// ParseTraceparent decodes a W3C traceparent header
// (version-traceid-spanid-flags). ok is false on any malformed field,
// unknown version syntax, or all-zero IDs, per the spec.
func ParseTraceparent(h string) (trace TraceID, span SpanID, sampled, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	// Version ff is forbidden; version 00 admits nothing after the flags;
	// higher versions may append fields after another dash.
	if h[:2] == "ff" {
		return TraceID{}, SpanID{}, false, false
	}
	if len(h) > 55 && (h[:2] == traceparentVersion || h[55] != '-') {
		return TraceID{}, SpanID{}, false, false
	}
	// The spec mandates lowercase hex; hex.Decode is laxer, so screen first.
	for i := 3; i < 55; i++ {
		if h[i] >= 'A' && h[i] <= 'F' {
			return TraceID{}, SpanID{}, false, false
		}
	}
	trace, ok = ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(span[:], []byte(h[36:52])); err != nil || span.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	flags, err := hex.DecodeString(h[53:55])
	if err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	return trace, span, flags[0]&1 == 1, true
}

// FormatTraceparent renders the W3C traceparent header for (trace, span).
func FormatTraceparent(trace TraceID, span SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return traceparentVersion + "-" + trace.String() + "-" + span.String() + "-" + flags
}
