package looppart

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"looppart/internal/paperex"
	"looppart/internal/partition"
)

// goldenExplainParams bind the explain sweep. N=8 keeps the traces short:
// every candidate the searches score prints one line.
var goldenExplainParams = map[string]int64{"N": 8, "T": 2}

const goldenExplainFile = "testdata/golden_explain.txt"

// TestGoldenExplain pins the decision trace Service.Explain returns for
// every combination of the golden sweep at goldenExplainParams, plus one
// measured tournament for its candidate and chosen events. The searches
// run on one worker: with more, the evaluated and pruned counts of the
// chosen events depend on which worker's bound the others saw first.
// Regenerate with `go test -run TestGoldenExplain -update` only for a
// deliberate output change.
func TestGoldenExplain(t *testing.T) {
	defer partition.SetSearchWorkers(partition.SetSearchWorkers(1))
	var b strings.Builder
	goldenSweep(goldenStrategies, func(name string, strategy Strategy, procs int) {
		writeExplainRecord(&b, ServiceOptions{}, name, strategy, procs)
	})
	writeExplainRecord(&b, ServiceOptions{AutotuneK: 4}, "example2", Rect, 16)
	checkGolden(t, goldenExplainFile, b.String())
}

// writeExplainRecord renders one explained request: its key and decision
// trace, or the exact error text. A fresh Service per call keeps every
// explain a true search.
func writeExplainRecord(b *strings.Builder, opts ServiceOptions, name string, strategy Strategy, procs int) {
	fmt.Fprintf(b, "=== %s strategy=%s procs=%d autotune=%d ===\n", name, strategy, procs, opts.AutotuneK)
	resp, trace, err := NewService(opts).Explain(context.Background(), PlanRequest{
		Source:   paperex.All[name],
		Params:   goldenExplainParams,
		Procs:    procs,
		Strategy: strategy.String(),
	})
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "key: %s\n%s", resp.Key, trace)
}
