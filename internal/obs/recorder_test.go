package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func rec(trace string, status int, latency time.Duration) *Record {
	return &Record{
		TraceID: trace, Route: "/v1/plan", Status: status,
		Start: time.Now(), LatencyNs: int64(latency),
	}
}

func TestRecorderRingNewestFirst(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Add(rec(string(rune('a'+i)), 200, time.Millisecond))
	}
	got := r.Records()
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	want := []string{"f", "e", "d", "c"}
	for i, w := range want {
		if got[i].TraceID != w {
			t.Fatalf("records[%d] = %q, want %q (newest first)", i, got[i].TraceID, w)
		}
	}
	st := r.Stats()
	if st.Recorded != 6 || st.Overwritten != 2 || st.Capacity != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecorderBurstHoldsMemoryFlat is the ring-cap regression guard: a
// 10k-request burst through a 256-slot recorder must retain exactly the
// ring (not the burst), count the overwrites, and leave the heap where
// it started once the transient records are collected.
func TestRecorderBurstHoldsMemoryFlat(t *testing.T) {
	r := NewRecorder(256)

	burst := func(n int, start int) {
		for i := 0; i < n; i++ {
			tr := NewTrace("", "server.plan", nil)
			tr.SetCaps(8, 4)
			_, sp := StartSpan(WithTrace(context.Background(), tr), "cache.lookup")
			sp.SetAttr("outcome", "hit")
			sp.End()
			rc := rec(tr.ID(), 200, time.Millisecond)
			rc.Spans = tr.Root().Snapshot()
			r.Add(rc)
		}
	}

	// Warm up, then measure the live heap with the ring full.
	burst(1000, 0)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	burst(10000, 1000)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if got := len(r.Records()); got != 256 {
		t.Fatalf("ring holds %d records, want 256", got)
	}
	st := r.Stats()
	if st.Recorded != 11000 || st.Overwritten != 11000-256 {
		t.Fatalf("stats = %+v, want 11000 recorded / %d overwritten", st, 11000-256)
	}
	// The ring was already full before the measured burst, so live heap
	// must not grow with burst size. Allow generous slack for runtime
	// noise: a leak of 10k records with span trees would be megabytes.
	const slack = 1 << 20
	if after.HeapAlloc > before.HeapAlloc+slack {
		t.Fatalf("heap grew %d bytes across a 10k burst (want < %d): ring is not bounding memory",
			after.HeapAlloc-before.HeapAlloc, slack)
	}
}

func TestRecorderConcurrentAdd(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(rec("t", 200, time.Millisecond))
			}
		}()
	}
	wg.Wait()
	if got := len(r.Records()); got != 64 {
		t.Fatalf("retained %d records, want 64", got)
	}
	if st := r.Stats(); st.Recorded != 4000 {
		t.Fatalf("recorded %d, want 4000", st.Recorded)
	}
}

func TestRecorderFilter(t *testing.T) {
	slow := rec("slow-1", 200, 80*time.Millisecond)
	slow.Key = "nest:abc"
	slow.SLOBreach = true
	fast := rec("fast-1", 200, time.Millisecond)
	fast.Key = "nest:xyz"
	failed := rec("err-1", 503, 2*time.Millisecond)

	for _, tc := range []struct {
		name string
		f    Filter
		want map[*Record]bool
	}{
		{"all", Filter{}, map[*Record]bool{slow: true, fast: true, failed: true}},
		{"trace", Filter{TraceID: "slow-1"}, map[*Record]bool{slow: true}},
		{"key", Filter{Key: "abc"}, map[*Record]bool{slow: true}},
		{"status", Filter{Status: 503}, map[*Record]bool{failed: true}},
		{"class", Filter{StatusClass: 5}, map[*Record]bool{failed: true}},
		{"latency", Filter{MinLatency: 10 * time.Millisecond}, map[*Record]bool{slow: true}},
		{"breach", Filter{BreachOnly: true}, map[*Record]bool{slow: true}},
	} {
		for _, r := range []*Record{slow, fast, failed} {
			if got := tc.f.Match(r); got != tc.want[r] {
				t.Errorf("%s: Match(%s) = %v, want %v", tc.name, r.TraceID, got, tc.want[r])
			}
		}
	}
}

func TestRecorderDiskSnapshot(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(8)
	if err := r.SnapshotTo(filepath.Join(dir, "snaps")); err != nil {
		t.Fatal(err)
	}

	r.Add(rec("fine", 200, time.Millisecond)) // healthy: no snapshot
	bad := rec("boom-1", 500, time.Millisecond)
	bad.Error = "verification failed"
	r.Add(bad)
	breach := rec("slow-9", 200, time.Second)
	breach.SLOBreach = true
	r.Add(breach) // rate-limited: within minSnapGap of the 500 snapshot

	files, err := os.ReadDir(filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("wrote %d snapshots, want 1 (rate-limited)", len(files))
	}
	buf, err := os.ReadFile(filepath.Join(dir, "snaps", files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("snapshot is not a Record: %v", err)
	}
	if got.TraceID != "boom-1" || got.Status != 500 {
		t.Fatalf("snapshot = %+v, want the 500 record", got)
	}
	st := r.Stats()
	if st.SnapWrites != 1 || st.SnapSuppressed != 1 {
		t.Fatalf("snapshot stats = %+v, want 1 write / 1 suppressed", st)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(rec("x", 200, time.Millisecond))
	if r.Records() != nil || r.Cap() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if st := r.Stats(); st.Recorded != 0 {
		t.Fatalf("nil stats = %+v", st)
	}
}
