package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"looppart/internal/telemetry"
)

func TestSpanEndFeedsLatencyHistogram(t *testing.T) {
	reg := telemetry.New()
	tr := NewTrace("", "server.plan", reg)
	_, sp := StartSpan(WithTrace(context.Background(), tr), "cache.lookup")
	sp.End()
	sp.End() // idempotent: one observation
	tr.Root().End()
	h := reg.Snapshot().Histograms
	if h["cache.lookup.latency"].Count != 1 || h["server.plan.latency"].Count != 1 {
		t.Errorf("latency histograms = %+v, want one observation each", h)
	}
}

func TestProcessTraceCatchesCtxlessSpans(t *testing.T) {
	reg := telemetry.New()
	proc := NewTrace("cli", "cli", reg)
	prev := SetProcess(proc)
	defer SetProcess(prev)

	ctx, outer := StartSpan(context.Background(), "partition.rect")
	if outer == nil {
		t.Fatal("no span under the process trace")
	}
	_, inner := StartSpan(ctx, "search.rect")
	inner.End()
	outer.End()

	// A request trace still wins over the process trace.
	req := NewTrace("", "server.plan", nil)
	_, rs := StartSpan(WithTrace(context.Background(), req), "parse")
	rs.End()

	snap := proc.Root().Snapshot()
	if snap.Find("partition.rect").Find("search.rect") == nil {
		t.Errorf("search.rect did not nest under partition.rect: %+v", snap)
	}
	if snap.Find("parse") != nil || req.Root().Snapshot().Find("parse") == nil {
		t.Error("a request span leaked into the process trace")
	}
	if reg.Snapshot().Histograms["search.rect.latency"].Count != 1 {
		t.Error("process-trace span did not feed its latency histogram")
	}
}

func TestChromeTraceShape(t *testing.T) {
	reg := telemetry.New()
	tr := NewTrace("cli", "looppart", reg)
	ctx := WithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "exec.tile")
	sp.SetAttr("proc", 3)
	sp.SetAttr("iters", 42)
	sp.End()
	_, sp = StartSpan(ctx, "parse")
	sp.End()
	reg.Emit("partition.rect", "candidate", map[string]any{"footprint": 104.0})
	reg.Counter("sim.misses").Add(5)
	tr.Root().End()

	rec := &Record{TraceID: tr.ID(), Start: tr.Start(), Spans: tr.Root().Snapshot()}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Record{rec}, reg); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	tracks := map[string]bool{}
	for _, ev := range evs {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event %v missing numeric ts", ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
			switch ev["name"] {
			case "exec.tile":
				if ev["tid"] != float64(4) || ev["pid"] != float64(1) {
					t.Errorf("tile span not on proc 3's track: %v", ev)
				}
			case "parse", "looppart":
				if ev["tid"] != float64(0) {
					t.Errorf("%v not on the pipeline track: %v", ev["name"], ev)
				}
			}
		case "i":
			if ev["name"] != "partition.rect:candidate" {
				t.Errorf("instant event name = %v", ev["name"])
			}
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				tracks[args["name"].(string)] = true
			}
		}
	}
	if phases["X"] != 3 || phases["i"] != 1 || phases["C"] == 0 {
		t.Errorf("event phases = %v, want 3 X, 1 i, some C", phases)
	}
	for _, want := range []string{"pipeline", "proc 3", "cli", "telemetry"} {
		if !tracks[want] {
			t.Errorf("no track named %q in %v", want, tracks)
		}
	}

	// No records and no registry: an empty but valid array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil, nil); err != nil || buf.String() != "[]\n" {
		t.Errorf("empty trace = %q, %v", buf.String(), err)
	}
}
