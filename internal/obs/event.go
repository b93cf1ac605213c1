package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one structured decision-trace record: a candidate a search
// scored, the shape it chose, a strategy fallback, a per-class analysis
// fact. Fields hold the numbers (cost terms, grids, spreads) the decision
// was made from.
type Event struct {
	Time   time.Duration  `json:"t_ns"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Fields map[string]any `json:"fields,omitempty"`
}

// EventLog collects the decision events of one run in emission order:
// an explained request, or a CLI's process trace. Decision code finds it
// with EventsFrom; a nil *EventLog records nothing, so code that builds
// an event's fields checks for nil first and pays nothing more when no
// log is installed.
type EventLog struct {
	start time.Time

	mu     sync.Mutex
	events []Event
}

// NewEventLog returns an empty log whose event times count from now.
func NewEventLog() *EventLog { return &EventLog{start: time.Now()} }

// Emit records a decision event; no-op on nil. fields may be nil.
func (l *EventLog) Emit(kind, name string, fields map[string]any) {
	if l == nil {
		return
	}
	ev := Event{Time: time.Since(l.start), Kind: kind, Name: name, Fields: fields}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// FormatDecisionTrace renders the events for a human: one line per
// event, fields in lexicographic order. Returns "" when nothing was
// recorded.
func (l *EventLog) FormatDecisionTrace() string {
	var b strings.Builder
	for _, ev := range l.Events() {
		fmt.Fprintf(&b, "%-28s %s", ev.Kind, ev.Name)
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			// An event's name often restates one field (e.g. the grid a
			// candidate was named after); don't print it twice.
			if kv := fmt.Sprintf("%s=%v", k, ev.Fields[k]); kv != ev.Name {
				b.WriteString("  " + kv)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

type eventsKey struct{}

// WithEvents returns ctx with log as its event log: the decisions made
// under the returned context record into log.
func WithEvents(ctx context.Context, log *EventLog) context.Context {
	return context.WithValue(ctx, eventsKey{}, log)
}

// EventsFrom returns the event log decisions made under ctx record into:
// the one WithEvents installed, else the process trace's (a CLI's
// -trace or -explain), else nil. A served request installs none, so
// serving records no events.
func EventsFrom(ctx context.Context) *EventLog {
	if log, ok := ctx.Value(eventsKey{}).(*EventLog); ok {
		return log
	}
	return process.Load().Events()
}
