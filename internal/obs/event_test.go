package obs

import (
	"context"
	"testing"
)

func TestEventsFromFindsContextThenProcessLog(t *testing.T) {
	var nilLog *EventLog
	nilLog.Emit("kind", "name", map[string]any{"x": 1})
	if nilLog.Events() != nil || nilLog.FormatDecisionTrace() != "" {
		t.Error("a nil log recorded an event")
	}
	if log := EventsFrom(context.Background()); log != nil {
		t.Fatalf("EventsFrom without a log = %v, want nil", log)
	}

	proc := NewTrace("cli", "cli", nil)
	procLog := proc.RecordEvents()
	defer SetProcess(SetProcess(proc))
	if EventsFrom(context.Background()) != procLog {
		t.Error("a ctx-less call does not find the process trace's log")
	}
	own := NewEventLog()
	ctx := WithEvents(WithTrace(context.Background(), NewTrace("", "server.plan", nil)), own)
	EventsFrom(ctx).Emit("partition.rect.chosen", "grid=[4 4]", nil)
	if len(own.Events()) != 1 || len(procLog.Events()) != 0 {
		t.Errorf("the context's log did not win: own %v, process %v", own.Events(), procLog.Events())
	}
}

func TestFormatDecisionTrace(t *testing.T) {
	log := NewEventLog()
	log.Emit("partition.rect.candidate", "grid=[2 4]", map[string]any{"footprint": 140.0, "ext": "[12 6]", "grid": "[2 4]"})
	log.Emit("partition.rect.chosen", "grid=[8 1]", nil)
	out := log.FormatDecisionTrace()
	// Fields print sorted, and the grid field the name restates is not
	// printed twice.
	want := "partition.rect.candidate     grid=[2 4]  ext=[12 6]  footprint=140\n" +
		"partition.rect.chosen        grid=[8 1]\n"
	if out != want {
		t.Errorf("decision trace:\n%s\nwant:\n%s", out, want)
	}
}
