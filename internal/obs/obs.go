// Package obs is the span layer: every timed stage, in the planning
// service and the CLIs alike, is a Span in a Trace's tree, and ending a
// span records its duration in the trace's telemetry registry as the
// histogram "<span>.latency". Where the registry aggregates, a trace
// answers the question "what happened to *this* request".
//
// Each served request carries a Trace (identified by a trace ID accepted
// from the client or generated) through its context. Pipeline stages open
// Spans on the trace — cache lookup, singleflight, partition search,
// store persist, verification — and attach the numbers each stage decided
// from (canonical key, hit/miss/coalesced, candidates evaluated and
// pruned, tournament rank). The finished span tree is snapshotted into a
// flight-recorder Record (recorder.go), matched against the route's
// latency SLO (slo.go), and logged as one structured JSON line keyed by
// the trace ID (log.go) — so a slow request can be reconstructed
// end-to-end from observability output alone. Library calls without a
// context open their spans under the process trace (SetProcess) that a
// CLI's -trace installs; WriteChromeTrace renders records as one Chrome
// trace-event file.
//
// Decision events (why a search chose its shape) ride the context the
// same way (event.go): an explained request installs an EventLog with
// WithEvents, a CLI's process trace carries one for ctx-less calls, and
// a served request carries none, so serving builds no events.
//
// Everything is nil-safe in the telemetry idiom: code instrumented with
// StartSpan pays one context lookup and one atomic load when no trace is
// installed, so the embedded Service and the CLIs run untraced at full
// speed.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"looppart/internal/telemetry"
)

// Bounds: a trace that lives as long as one request still must not grow
// without limit when a pathological request fans out (a 256-item batch
// opens spans per item), so spans per trace and attributes per span are
// capped, with drops counted and surfaced on the flight record.
const (
	// DefaultMaxSpans bounds the spans recorded per trace.
	DefaultMaxSpans = 512
	// DefaultMaxAttrs bounds the attributes recorded per span.
	DefaultMaxAttrs = 32
)

// Trace is one request's observability scope: an ID and a tree of spans.
// A Trace is safe for concurrent use — batch items and singleflight
// owners append spans from their own goroutines.
type Trace struct {
	id    string
	start time.Time
	reg   *telemetry.Registry // receives ended spans' latencies; may be nil

	maxSpans int32
	maxAttrs int32

	nSpans       atomic.Int32
	droppedSpans atomic.Int64
	droppedAttrs atomic.Int64

	root *Span

	// events is the decision-event log RecordEvents gave the trace; nil
	// for request traces.
	events *EventLog
}

// NewTrace starts a trace identified by id (NewID() when empty) whose
// root span is named rootName; its spans end into reg (which may be
// nil). Caps default to DefaultMaxSpans / DefaultMaxAttrs; SetCaps
// overrides them before spans are added.
func NewTrace(id, rootName string, reg *telemetry.Registry) *Trace {
	if id == "" {
		id = NewID()
	}
	tr := &Trace{
		id:       id,
		start:    time.Now(),
		reg:      reg,
		maxSpans: DefaultMaxSpans,
		maxAttrs: DefaultMaxAttrs,
	}
	tr.root = &Span{tr: tr, name: rootName}
	tr.nSpans.Store(1)
	return tr
}

// SetCaps bounds the spans per trace and attributes per span (0 keeps
// the default for that bound). Call before recording spans.
func (t *Trace) SetCaps(maxSpans, maxAttrs int) {
	if t == nil {
		return
	}
	if maxSpans > 0 {
		t.maxSpans = int32(maxSpans)
	}
	if maxAttrs > 0 {
		t.maxAttrs = int32(maxAttrs)
	}
}

// RecordEvents gives the trace an event log timed from the trace's
// start, and returns it. Installed as the process trace, the trace then
// collects the decision events of calls whose context installs no log of
// its own (EventsFrom). Call before SetProcess.
func (t *Trace) RecordEvents() *EventLog {
	t.events = &EventLog{start: t.start}
	return t.events
}

// Events returns the trace's event log: nil on nil, and on a trace
// RecordEvents was not called on.
func (t *Trace) Events() *EventLog {
	if t == nil {
		return nil
	}
	return t.events
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the wall-clock time span offsets are relative to.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Root returns the root span (nil on nil).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Dropped returns how many spans and attributes the caps discarded.
func (t *Trace) Dropped() (spans, attrs int64) {
	if t == nil {
		return 0, 0
	}
	return t.droppedSpans.Load(), t.droppedAttrs.Load()
}

// since returns the trace-relative timestamp.
func (t *Trace) since() time.Duration { return time.Since(t.start) }

// Span is one timed stage of a request. Spans form a tree under the
// trace root; a span and its attribute map are guarded by the span's own
// mutex, so sibling stages record concurrently without contention on a
// shared structure (no cross-request state exists at all).
type Span struct {
	tr   *Trace
	name string

	mu       sync.Mutex
	start    time.Duration
	dur      time.Duration
	ended    bool
	attrs    map[string]any
	children []*Span
}

// StartChild opens a child span; nil-safe (returns nil, which is itself
// a valid no-op span). Returns nil when the trace's span cap is reached,
// counting the drop.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	if t.nSpans.Add(1) > t.maxSpans {
		t.nSpans.Add(-1)
		t.droppedSpans.Add(1)
		return nil
	}
	child := &Span{tr: t, name: name, start: t.since()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// SetAttr attaches a key/value to the span (values must be
// JSON-encodable); no-op on nil, dropped and counted past the cap.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	if _, exists := s.attrs[key]; !exists && len(s.attrs) >= int(s.tr.maxAttrs) {
		s.mu.Unlock()
		s.tr.droppedAttrs.Add(1)
		return
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Attr returns the value recorded under key (nil when absent or on a
// nil span).
func (s *Span) Attr(key string) any {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// End closes the span, fixing its duration, and records the duration in
// the trace's registry as "<name>.latency". Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.since()
	s.mu.Lock()
	first := !s.ended
	if first {
		s.ended = true
		s.dur = now - s.start
	}
	s.mu.Unlock()
	if first {
		s.tr.reg.Latency(s.name).Observe(now - s.start)
	}
}

// SpanSnapshot is the immutable, JSON-encodable copy of a span subtree
// taken when a request record is cut. A span still running at snapshot
// time (a detached singleflight search outliving an abandoning waiter)
// reports the duration so far and running=true.
type SpanSnapshot struct {
	Name     string          `json:"name"`
	StartNs  int64           `json:"start_ns"`
	DurNs    int64           `json:"dur_ns"`
	Running  bool            `json:"running,omitempty"`
	Attrs    map[string]any  `json:"attrs,omitempty"`
	Children []*SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies the subtree rooted at s (nil on nil).
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	now := s.tr.since()
	s.mu.Lock()
	snap := &SpanSnapshot{
		Name:    s.name,
		StartNs: s.start.Nanoseconds(),
		DurNs:   s.dur.Nanoseconds(),
		Running: !s.ended,
	}
	if !s.ended {
		snap.DurNs = (now - s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			snap.Attrs[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// Find returns the first descendant (depth-first, pre-order, the
// snapshot itself included) named name, or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Walk visits the snapshot subtree depth-first, pre-order.
func (s *SpanSnapshot) Walk(fn func(*SpanSnapshot)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Context plumbing. Two keys: the trace (stable for the request) and the
// current span (rebound by every StartSpan so children nest correctly).
type traceKey struct{}
type spanKey struct{}

// WithTrace installs tr on the context; the current span becomes the
// trace root.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, traceKey{}, tr)
	return context.WithValue(ctx, spanKey{}, tr.root)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// TraceID returns the context's trace ID, or "".
func TraceID(ctx context.Context) string { return TraceFrom(ctx).ID() }

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// process is the trace ctx-less library calls open their spans under;
// nil (the default) leaves them untraced.
var process atomic.Pointer[Trace]

// SetProcess installs tr as the process trace (nil removes it) and
// returns the previous one so callers can restore it. A CLI installs one
// for -trace; a serving process leaves it unset, since its requests
// carry their own traces.
func SetProcess(tr *Trace) *Trace { return process.Swap(tr) }

// StartSpan opens a child of the context's current span — or, when the
// context carries none, of the process trace's root — and returns a
// context with the child current. With neither, the original context and
// a nil (no-op) span come back, so instrumented code needs no
// enabled-check.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		if parent = process.Load().Root(); parent == nil {
			return ctx, nil
		}
	}
	child := parent.StartChild(name)
	if child == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, child), child
}
