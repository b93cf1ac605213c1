package telemetry

import "testing"

func TestEventCapBoundsEvents(t *testing.T) {
	r := New()
	r.SetEventCap(3)
	for i := 0; i < 5; i++ {
		if want := i < 3; r.Recording() != want {
			t.Errorf("before event %d: Recording = %v, want %v", i, !want, want)
		}
		r.Emit("k", "n", nil)
	}
	if n := len(r.Events()); n != 3 {
		t.Errorf("events = %d, want 3", n)
	}
	if got := r.Snapshot().Counters["telemetry.dropped_events"]; got != 2 {
		t.Errorf("snapshot drop counter = %d, want 2", got)
	}
}

func TestRecordCapsZeroMeansUnbounded(t *testing.T) {
	r := New()
	for i := 0; i < 100; i++ {
		r.Emit("k", "n", nil)
	}
	if n := len(r.Events()); n != 100 {
		t.Errorf("events = %d, want 100", n)
	}
	if de := r.Snapshot().Counters["telemetry.dropped_events"]; de != 0 {
		t.Errorf("dropped events = %d", de)
	}
	if !r.Recording() {
		t.Error("an uncapped registry stopped recording")
	}
}
