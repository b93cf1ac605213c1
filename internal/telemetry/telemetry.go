// Package telemetry is the metric layer of the reproduction: a
// zero-dependency registry of counters, gauges and duration histograms,
// threaded through the partitioning pipeline (analysis → partition
// search → simulation → execution). Spans and decision events live in
// internal/obs; ending a span records its duration here, in the
// histogram "<span>.latency" (Latency).
//
// The paper's argument is quantitative — tile shapes are chosen by
// minimizing a cumulative-footprint cost (Theorems 2/4) and validated
// against measured miss traffic (Figure 3, §5) — so the pipeline records
// the numbers it computes along the way:
//
//   - the partition searches count the candidates they evaluate and
//     prune, and the closed form its hits and fallbacks;
//   - the executor records barrier wait, per-processor iteration counts,
//     and striped-lock contention; the cache simulator publishes its
//     Metrics through the same registry;
//   - components that count their own events (the planning service, the
//     plan cache, the cluster client, the tuned-plan store) are read at
//     snapshot time through Collect, so each event is counted once;
//   - the registry exports as a flat metrics dump (-metrics, JSON or
//     Prometheus-style text) or a Snapshot attached to experiment results.
//
// Telemetry is disabled by default: the active registry is nil and every
// method is nil-receiver-safe, so instrumented code pays only a pointer
// check. Enable it by installing a registry with SetActive (the CLIs do
// this when any observability flag is given).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// active is the process-wide registry; nil means telemetry is disabled.
var active atomic.Pointer[Registry]

// Active returns the installed registry, or nil when telemetry is off.
// All Registry methods tolerate a nil receiver, so call sites may use the
// result unconditionally.
func Active() *Registry { return active.Load() }

// SetActive installs reg as the process-wide registry (nil disables
// telemetry) and returns the previous registry so callers can restore it.
func SetActive(reg *Registry) *Registry { return active.Swap(reg) }

// Registry owns the instruments of one run. The zero value is not usable;
// construct with New. A nil *Registry is a valid no-op sink.
type Registry struct {
	// latency maps a span name to its "<name>.latency" histogram, so a
	// span's End finds it without building the name.
	latency sync.Map

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(Snapshot)
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Collect registers fn to run on every Snapshot: fn writes the counters
// and gauges a component already keeps into the snapshot's maps, so the
// registry exports them without counting the events a second time. fn
// runs outside the registry's lock and must not call Collect.
func (r *Registry) Collect(fn func(Snapshot)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Latency returns the histogram a span named span ends into, exported
// as "<span>.latency". It is looked up by the span name itself, so
// recording a span builds no string. Returns nil on a nil registry.
func (r *Registry) Latency(span string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.latency.Load(span); ok {
		return h.(*Histogram)
	}
	h, _ := r.latency.LoadOrStore(span, r.Histogram(span+".latency"))
	return h.(*Histogram)
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry; (*Counter)(nil).Add is a no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{min: math.MaxInt64}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; no-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v; no-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates durations into power-of-two nanosecond buckets
// (bucket i covers [2^i, 2^(i+1)) ns), tracking count, sum, min, and max.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [64]int64
}

// Observe records one duration; no-op on nil. Negative durations clamp to
// zero (they can arise from coarse clocks).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	b := 0
	for v := ns; v > 1; v >>= 1 {
		b++
	}
	h.mu.Lock()
	h.count++
	h.sum += ns
	if ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.buckets[b]++
	h.mu.Unlock()
}

// HistSummary is the exported view of a histogram.
type HistSummary struct {
	Count  int64   `json:"count"`
	SumNs  int64   `json:"sum_ns"`
	MinNs  int64   `json:"min_ns"`
	MaxNs  int64   `json:"max_ns"`
	MeanNs float64 `json:"mean_ns"`
}

// Summary returns the histogram totals (zero value on nil or empty).
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistSummary{}
	}
	return HistSummary{
		Count:  h.count,
		SumNs:  h.sum,
		MinNs:  h.min,
		MaxNs:  h.max,
		MeanNs: float64(h.sum) / float64(h.count),
	}
}

// Snapshot is a point-in-time copy of a registry's instruments, suitable
// for JSON encoding or diffing between pipeline stages.
type Snapshot struct {
	Counters   map[string]int64       `json:"counters,omitempty"`
	Gauges     map[string]float64     `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot copies the current instrument values, then runs the Collect
// functions (empty snapshot on nil).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSummary{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Summary()
	}
	collectors := r.collectors
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(s)
	}
	return s
}

// Delta returns this snapshot minus prev: counter and histogram totals
// subtract; gauges keep their current value (last-write-wins semantics).
// Instruments absent from the receiver are dropped.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSummary{},
	}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		if h.Count == p.Count {
			continue
		}
		dh := HistSummary{Count: h.Count - p.Count, SumNs: h.SumNs - p.SumNs, MinNs: h.MinNs, MaxNs: h.MaxNs}
		if dh.Count > 0 {
			dh.MeanNs = float64(dh.SumNs) / float64(dh.Count)
		}
		d.Histograms[name] = dh
	}
	return d
}

// sortedKeys returns m's keys in lexicographic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
