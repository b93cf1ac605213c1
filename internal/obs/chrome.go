package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"

	"looppart/internal/telemetry"
)

// Chrome trace-event export (the JSON array format of chrome://tracing /
// Perfetto, "Trace Event Format"). Every span of every record becomes a
// complete event (ph "X", microsecond ts/dur); record i renders as
// process i+1, named after its route and trace ID. A span carrying an int
// "proc" attribute (the executor's per-processor tiles) renders on that
// processor's track (tid proc+1), every other span on the record's
// pipeline track (tid 0). The registry's decision events (ph "i") and
// final counter values (ph "C") render as process 0. Timestamps count
// from the earliest record or registry start.

// traceEvent is one record of the Chrome trace-event JSON array.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes records' span trees, plus reg's decision events
// and counters (reg may be nil), as one Chrome trace-event JSON array.
func WriteChromeTrace(w io.Writer, records []*Record, reg *telemetry.Registry) error {
	base := reg.Start()
	for _, rec := range records {
		if base.IsZero() || rec.Start.Before(base) {
			base = rec.Start
		}
	}
	us := func(t time.Time, offset time.Duration) float64 {
		return float64((t.Sub(base) + offset).Nanoseconds()) / 1e3
	}
	meta := func(kind string, pid, tid int, name string) traceEvent {
		return traceEvent{Name: kind, Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
	}
	evs := []traceEvent{}
	for i, rec := range records {
		pid := i + 1
		tracks := map[int]bool{-1: true}
		rec.Spans.Walk(func(s *SpanSnapshot) {
			proc, ok := s.Attrs["proc"].(int)
			if !ok {
				proc = -1
			}
			tracks[proc] = true
			dur := float64(s.DurNs) / 1e3
			evs = append(evs, traceEvent{
				Name: s.Name, Phase: "X", TS: us(rec.Start, time.Duration(s.StartNs)), Dur: &dur,
				PID: pid, TID: proc + 1, Args: s.Attrs,
			})
		})
		name := rec.TraceID
		if rec.Route != "" {
			name = rec.Route + " " + rec.TraceID
		}
		evs = append(evs, meta("process_name", pid, 0, name))
		procs := make([]int, 0, len(tracks))
		for p := range tracks {
			procs = append(procs, p)
		}
		sort.Ints(procs)
		for _, p := range procs {
			track := "pipeline"
			if p >= 0 {
				track = "proc " + strconv.Itoa(p)
			}
			evs = append(evs, meta("thread_name", pid, p+1, track))
		}
	}
	if reg != nil {
		for _, ev := range reg.Events() {
			evs = append(evs, traceEvent{
				Name: ev.Kind + ":" + ev.Name, Phase: "i", TS: us(reg.Start(), ev.Time),
				Scope: "t", Args: ev.Fields,
			})
		}
		snap := reg.Snapshot()
		ts := us(time.Now(), 0)
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			evs = append(evs, traceEvent{
				Name: name, Phase: "C", TS: ts,
				Args: map[string]any{"value": snap.Counters[name]},
			})
		}
		evs = append(evs, meta("process_name", 0, 0, "telemetry"))
	}
	return json.NewEncoder(w).Encode(evs)
}
