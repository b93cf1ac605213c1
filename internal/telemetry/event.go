package telemetry

import (
	"time"
)

// Event is one structured decision-trace record: a candidate the
// partitioner scored, the shape it chose, a strategy fallback, a per-class
// analysis fact. Fields hold the numbers (cost terms, grids, spreads) the
// decision was made from.
type Event struct {
	Time   time.Duration  `json:"t_ns"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Recording reports whether an Emit would keep its event: the registry
// is non-nil and its event buffer is not full. Code that builds field
// maps or names per event checks it first, so it pays only this check
// when nothing would be recorded.
func (r *Registry) Recording() bool { return r != nil && !r.eventsFull.Load() }

// Emit records a decision event; no-op on nil. fields may be nil.
func (r *Registry) Emit(kind, name string, fields map[string]any) {
	if r == nil {
		return
	}
	ev := Event{Time: r.since(), Kind: kind, Name: name, Fields: fields}
	r.mu.Lock()
	if r.eventCap > 0 && len(r.events) >= r.eventCap {
		r.mu.Unlock()
		r.droppedEvents.Add(1)
		return
	}
	r.events = append(r.events, ev)
	r.eventsFull.Store(r.eventCap > 0 && len(r.events) >= r.eventCap)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// EventsOfKind filters the recorded events by kind.
func (r *Registry) EventsOfKind(kind string) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// FieldKeys returns an event's field names in lexicographic order, so
// renderers print deterministically.
func (e Event) FieldKeys() []string {
	return sortedKeys(e.Fields)
}
