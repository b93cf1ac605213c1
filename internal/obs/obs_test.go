package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("", "server.plan", nil)
	if tr.ID() == "" {
		t.Fatal("empty generated trace ID")
	}
	ctx := WithTrace(context.Background(), tr)
	if got := TraceID(ctx); got != tr.ID() {
		t.Fatalf("TraceID(ctx) = %q, want %q", got, tr.ID())
	}

	ctx1, cache := StartSpan(ctx, "cache.lookup")
	cache.SetAttr("outcome", "miss")
	cache.End()
	if SpanFrom(ctx1) != cache {
		t.Fatal("StartSpan did not rebind the current span")
	}

	ctx2, sf := StartSpan(ctx, "singleflight")
	_, search := StartSpan(ctx2, "search")
	search.SetAttr("evaluated", 7)
	search.End()
	sf.End()

	snap := tr.Root().Snapshot()
	if snap.Find("cache.lookup") == nil || snap.Find("singleflight") == nil {
		t.Fatalf("missing spans in snapshot: %+v", snap)
	}
	s := snap.Find("search")
	if s == nil {
		t.Fatal("search span missing")
	}
	if got := s.Attrs["evaluated"]; got != 7 {
		t.Fatalf("search evaluated attr = %v, want 7", got)
	}
	// search must nest under singleflight, not under the root.
	if snap.Find("singleflight").Find("search") == nil {
		t.Fatal("search span is not a child of singleflight")
	}
	var names []string
	snap.Walk(func(s *SpanSnapshot) { names = append(names, s.Name) })
	if strings.Join(names, ",") != "server.plan,cache.lookup,singleflight,search" {
		t.Fatalf("walk order = %v", names)
	}

	// The whole snapshot must be JSON-encodable (the flight recorder and
	// /debug/flightrec serve it).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("expected nil span without a trace")
	}
	if ctx2 != ctx {
		t.Fatal("expected the original context back")
	}
	// All nil-receiver methods must be safe.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Snapshot() != nil || sp.StartChild("child") != nil {
		t.Fatal("nil span methods must return nil")
	}
	if TraceFrom(ctx) != nil || TraceID(ctx) != "" || SpanFrom(ctx) != nil {
		t.Fatal("empty context must carry no trace")
	}
}

func TestTraceCapsDropAndCount(t *testing.T) {
	tr := NewTrace("capped", "root", nil)
	tr.SetCaps(4, 2) // root + 3 children; 2 attrs per span

	root := tr.Root()
	var kept int
	for i := 0; i < 10; i++ {
		if root.StartChild("c") != nil {
			kept++
		}
	}
	if kept != 3 {
		t.Fatalf("kept %d children, want 3 (cap 4 includes the root)", kept)
	}
	root.SetAttr("a", 1)
	root.SetAttr("b", 2)
	root.SetAttr("c", 3) // dropped
	root.SetAttr("a", 9) // overwrite of an existing key is not a drop
	ds, da := tr.Dropped()
	if ds != 7 || da != 1 {
		t.Fatalf("Dropped() = (%d, %d), want (7, 1)", ds, da)
	}
	if root.Attr("a") != 9 || root.Attr("c") != nil {
		t.Fatalf("attrs wrong after caps: a=%v c=%v", root.Attr("a"), root.Attr("c"))
	}
}

func TestRunningSpanSnapshot(t *testing.T) {
	tr := NewTrace("", "root", nil)
	sp := tr.Root().StartChild("detached.search")
	time.Sleep(time.Millisecond)
	snap := tr.Root().Snapshot().Find("detached.search")
	if snap == nil || !snap.Running {
		t.Fatalf("running span not marked running: %+v", snap)
	}
	if snap.DurNs <= 0 {
		t.Fatalf("running span should report elapsed time, got %d", snap.DurNs)
	}
	sp.End()
	snap = tr.Root().Snapshot().Find("detached.search")
	if snap.Running {
		t.Fatal("ended span still marked running")
	}
}

func TestConcurrentSpansOneTrace(t *testing.T) {
	tr := NewTrace("", "root", nil)
	tr.SetCaps(4096, 0)
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, sp := StartSpan(ctx, "work")
				sp.SetAttr("g", g)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Root().Snapshot()
	if len(snap.Children) != 800 {
		t.Fatalf("recorded %d spans, want 800", len(snap.Children))
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
		if SanitizeID(id) != id {
			t.Fatalf("generated ID %q does not pass SanitizeID", id)
		}
	}
}

func TestSanitizeID(t *testing.T) {
	cases := map[string]string{
		"abc-123":                  "abc-123",
		"":                         "",
		"has space":                "",
		"quote\"":                  "",
		"back\\slash":              "",
		"sla/sh":                   "",
		"ctrl\x01":                 "",
		strings.Repeat("a", 128):   strings.Repeat("a", 128),
		strings.Repeat("a", 129):   "",
		"UPPER_lower.dots:colons!": "UPPER_lower.dots:colons!",
	}
	for in, want := range cases {
		if got := SanitizeID(in); got != want {
			t.Errorf("SanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}
