package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultRecorderSize is the flight-recorder ring capacity when none is
// configured.
const DefaultRecorderSize = 256

// Record is one completed request as the flight recorder keeps it: the
// request's identity and outcome plus the full span tree and drop
// accounting. Records are immutable once published.
type Record struct {
	TraceID   string    `json:"trace_id"`
	Route     string    `json:"route"`
	Status    int       `json:"status"`
	Start     time.Time `json:"start"`
	LatencyNs int64     `json:"latency_ns"`

	// Cache and Key mirror the request's serving path (miss | hit |
	// dedup | bypass, and the canonical plan key) when the route has one.
	Cache string `json:"cache,omitempty"`
	Key   string `json:"key,omitempty"`
	Error string `json:"error,omitempty"`

	// SLOBreach marks a request that exceeded its route's latency
	// objective (the records disk snapshots are cut for, with 5xx).
	SLOBreach bool `json:"slo_breach,omitempty"`

	Spans *SpanSnapshot `json:"spans,omitempty"`
	// Events are the trace's decision events, when it recorded any.
	Events []Event `json:"events,omitempty"`

	// DroppedSpans / DroppedAttrs report what the trace's caps discarded,
	// so a truncated tree is never mistaken for a complete one.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
	DroppedAttrs int64 `json:"dropped_attrs,omitempty"`
}

// Latency returns the request latency as a duration.
func (r *Record) Latency() time.Duration { return time.Duration(r.LatencyNs) }

// Recorder is the flight recorder: a fixed-size lock-free ring of the
// last N completed request records. Writers claim a slot with one atomic
// add and publish with one atomic pointer store; readers snapshot with
// atomic loads. Memory is bounded by N regardless of request volume —
// older records are overwritten, and the overwrite count is exposed so
// dashboards can tell "quiet service" from "ring cycling fast".
type Recorder struct {
	slots []atomic.Pointer[Record]
	next  atomic.Uint64

	overwritten atomic.Int64

	// Disk snapshotting (SnapshotTo): at most one snapshot per
	// minSnapGap, so a 5xx storm cannot turn the recorder into a
	// disk-filling loop.
	snapDir        string
	lastSnapNs     atomic.Int64
	snapWrites     atomic.Int64
	snapSuppressed atomic.Int64
	snapErrors     atomic.Int64
}

// minSnapGap is the minimum interval between automatic disk snapshots.
const minSnapGap = time.Second

// NewRecorder returns a flight recorder holding the last n records
// (DefaultRecorderSize when n <= 0).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRecorderSize
	}
	return &Recorder{slots: make([]atomic.Pointer[Record], n)}
}

// SnapshotTo enables automatic disk snapshots into dir (created if
// missing) for records Add deems snapshot-worthy (5xx or SLO breach).
func (r *Recorder) SnapshotTo(dir string) error {
	if r == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.snapDir = dir
	return nil
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Add publishes a completed request record; no-op on nil. Records with a
// 5xx status or an SLO breach are additionally snapshotted to disk when
// SnapshotTo configured a directory.
func (r *Recorder) Add(rec *Record) {
	if r == nil || rec == nil {
		return
	}
	i := r.next.Add(1) - 1
	if i >= uint64(len(r.slots)) {
		r.overwritten.Add(1)
	}
	r.slots[i%uint64(len(r.slots))].Store(rec)
	if r.snapDir != "" && (rec.Status >= 500 || rec.SLOBreach) {
		r.snapshot(rec)
	}
}

// snapshot writes rec to the snapshot directory, rate-limited to one
// write per minSnapGap.
func (r *Recorder) snapshot(rec *Record) {
	now := time.Now().UnixNano()
	last := r.lastSnapNs.Load()
	if now-last < int64(minSnapGap) || !r.lastSnapNs.CompareAndSwap(last, now) {
		r.snapSuppressed.Add(1)
		return
	}
	name := fmt.Sprintf("flightrec-%s-%d.json", sanitizeFilename(rec.TraceID), now)
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(r.snapDir, name), append(buf, '\n'), 0o644)
	}
	if err != nil {
		r.snapErrors.Add(1)
		return
	}
	r.snapWrites.Add(1)
}

// sanitizeFilename keeps trace-ID characters safe for a filename.
func sanitizeFilename(s string) string {
	var b strings.Builder
	for i := 0; i < len(s) && i < maxIDLen; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Records returns the retained records, newest first.
func (r *Recorder) Records() []*Record {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	size := uint64(len(r.slots))
	count := n
	if count > size {
		count = size
	}
	out := make([]*Record, 0, count)
	for k := uint64(0); k < count; k++ {
		// Newest first: walk back from the last claimed slot. A slot may
		// briefly be nil (claimed, not yet published) or already
		// overwritten by a racing writer; both are fine to skip/accept —
		// the recorder is a diagnostic ring, not a ledger.
		if rec := r.slots[(n-1-k)%size].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// RecorderStats is the recorder's own accounting.
type RecorderStats struct {
	Capacity       int   `json:"capacity"`
	Recorded       int64 `json:"recorded"`
	Overwritten    int64 `json:"overwritten"`
	SnapWrites     int64 `json:"snapshot_writes,omitempty"`
	SnapSuppressed int64 `json:"snapshot_suppressed,omitempty"`
	SnapErrors     int64 `json:"snapshot_errors,omitempty"`
}

// Stats returns the recorder counters.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	return RecorderStats{
		Capacity:       len(r.slots),
		Recorded:       int64(r.next.Load()),
		Overwritten:    r.overwritten.Load(),
		SnapWrites:     r.snapWrites.Load(),
		SnapSuppressed: r.snapSuppressed.Load(),
		SnapErrors:     r.snapErrors.Load(),
	}
}

// Filter selects flight records. Zero values match everything.
type Filter struct {
	// TraceID matches exactly; Key matches as a substring of the
	// canonical plan key.
	TraceID string
	Key     string
	// Status matches exactly when > 0; StatusClass matches by hundreds
	// (5 matches 500..599) when > 0.
	Status      int
	StatusClass int
	// MinLatency keeps records at least this slow.
	MinLatency time.Duration
	// BreachOnly keeps only SLO-breaching records.
	BreachOnly bool
}

// Match reports whether rec passes the filter.
func (f Filter) Match(rec *Record) bool {
	if f.TraceID != "" && rec.TraceID != f.TraceID {
		return false
	}
	if f.Key != "" && !strings.Contains(rec.Key, f.Key) {
		return false
	}
	if f.Status > 0 && rec.Status != f.Status {
		return false
	}
	if f.StatusClass > 0 && rec.Status/100 != f.StatusClass {
		return false
	}
	if f.MinLatency > 0 && rec.Latency() < f.MinLatency {
		return false
	}
	if f.BreachOnly && !rec.SLOBreach {
		return false
	}
	return true
}
