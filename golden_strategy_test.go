package looppart

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"looppart/internal/paperex"
	"looppart/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output files")

// goldenStrategies are the legacy search strategies pinned byte-for-byte
// across the Strategy-plugin refactor. Auto rides along because it
// delegates to comm-free and rect and must keep resolving identically.
var goldenStrategies = []Strategy{Auto, Rect, Skewed, CommFree}

var goldenProcs = []int{4, 16}

// goldenParams bind the symbolic examples. Small extents keep the full
// example × strategy × procs × pool-size sweep fast; determinism pinning
// does not need large iteration spaces.
var goldenParams = map[string]int64{"N": 24, "T": 2}

// goldenPoolSizes are the forced search-worker pool sizes every plan must
// agree across (0 = GOMAXPROCS).
var goldenPoolSizes = []int{1, 4, 0}

const goldenFile = "testdata/golden_strategies.txt"

// goldenSkip reports combinations excluded from the sweep: the
// exhaustive skew enumeration on 3-D parallel nests takes minutes per
// combo (maxSkew 3 over 3×3 unimodular candidates), far too slow for a
// unit test at goldenParams. Skewed stays pinned on every 2-D nest here,
// and on the 3-D nests at N=8 by TestGoldenSkew3D.
func goldenSkip(name string, strategy Strategy) bool {
	if strategy != Skewed {
		return false
	}
	prog, err := Parse(paperex.All[name], goldenParams)
	if err != nil {
		return false
	}
	return len(prog.Nest.DoallLoops()) > 2
}

// goldenSweep calls fn for every (example, strategy, procs) combination
// of the golden sweep, examples in name order, skipping goldenSkip.
func goldenSweep(strategies []Strategy, fn func(name string, strategy Strategy, procs int)) {
	names := make([]string, 0, len(paperex.All))
	for name := range paperex.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, strategy := range strategies {
			if goldenSkip(name, strategy) {
				continue
			}
			for _, procs := range goldenProcs {
				fn(name, strategy, procs)
			}
		}
	}
}

// goldenCombos renders one deterministic record per (example, strategy,
// procs) of the golden sweep.
func goldenCombos(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	goldenSweep(goldenStrategies, func(name string, strategy Strategy, procs int) {
		writeGoldenRecord(&b, name, goldenParams, strategy, procs)
	})
	return b.String()
}

// writeGoldenRecord renders one combination's record: the plan's
// rendering (or the exact error text) plus the canonical service JSON
// served for the same request. The fresh Service per call keeps every
// record a true cache miss.
func writeGoldenRecord(b *strings.Builder, name string, params map[string]int64, strategy Strategy, procs int) {
	fmt.Fprintf(b, "=== %s strategy=%s procs=%d ===\n", name, strategy, procs)
	prog, err := Parse(paperex.All[name], params)
	if err != nil {
		fmt.Fprintf(b, "parse error: %v\n", err)
		return
	}
	plan, err := prog.Partition(procs, strategy)
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
	} else {
		fmt.Fprintf(b, "plan: %s\n", plan)
	}
	svc := NewService(ServiceOptions{})
	resp, err := svc.Plan(context.Background(), PlanRequest{
		Source:   paperex.All[name],
		Params:   params,
		Procs:    procs,
		Strategy: strategy.String(),
	})
	if err != nil {
		fmt.Fprintf(b, "service error: %v\n", err)
	} else {
		fmt.Fprintf(b, "key: %s\njson: %s\n", resp.Key, resp.Raw)
	}
}

// TestGoldenStrategyByteIdentity pins every seed nest's plan rendering,
// cache key, and canonical service JSON for the legacy strategies. The
// golden file was generated before the Strategy-plugin refactor;
// regenerate with `go test -run TestGoldenStrategyByteIdentity -update`
// only for a deliberate output change.
func TestGoldenStrategyByteIdentity(t *testing.T) {
	checkGolden(t, goldenFile, goldenCombos(t))
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", file, len(got))
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		diffLine := 0
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				diffLine = i
				break
			}
		}
		t.Fatalf("output diverged from %s at line %d:\n got: %q\nwant: %q",
			file, diffLine+1, line(gl, diffLine), line(wl, diffLine))
	}
}

func line(ls []string, i int) string {
	if i < len(ls) {
		return ls[i]
	}
	return "<eof>"
}

// TestGoldenStrategyPoolSizeInvariance re-runs every golden combination
// at forced worker-pool sizes 1, 4, and GOMAXPROCS: the plan rendering
// must be identical at every size (the engine's deterministic fold).
func TestGoldenStrategyPoolSizeInvariance(t *testing.T) {
	goldenSweep(goldenStrategies, func(name string, strategy Strategy, procs int) {
		checkPoolSizeInvariance(t, name, goldenParams, strategy, procs)
	})
}

// checkPoolSizeInvariance plans one combination at every forced
// worker-pool size of goldenPoolSizes and fails on any divergence.
func checkPoolSizeInvariance(t *testing.T, name string, params map[string]int64, strategy Strategy, procs int) {
	t.Helper()
	render := func() string {
		prog, err := Parse(paperex.All[name], params)
		if err != nil {
			return "parse error: " + err.Error()
		}
		plan, err := prog.Partition(procs, strategy)
		if err != nil {
			return "error: " + err.Error()
		}
		return plan.String()
	}
	var base string
	for i, pool := range goldenPoolSizes {
		prev := partition.SetSearchWorkers(pool)
		out := render()
		partition.SetSearchWorkers(prev)
		if i == 0 {
			base = out
			continue
		}
		if out != base {
			t.Fatalf("%s %s procs=%d: pool size %d diverged:\n got: %q\nwant: %q",
				name, strategy, procs, pool, out, base)
		}
	}
}

// goldenSkew3DExamples are the 3-D paper examples goldenSkip drops from
// the Skewed sweep. At N=8 their skewed searches stay within seconds, and
// the projecting classes among them (matmul's A[i,k], B[k,j], C[i,j]) are
// scored by exact tile enumeration rather than Theorem 2's determinants.
var goldenSkew3DExamples = []string{"example1ref", "example8", "example8doseq", "fig9stencil", "matmulsync"}

var goldenSkew3DParams = map[string]int64{"N": 8, "T": 2}

const goldenSkew3DFile = "testdata/golden_skew3d.txt"

// TestGoldenSkew3D pins the Skewed plans of the 3-D paper examples —
// rendering, cache key and canonical service JSON, as in
// TestGoldenStrategyByteIdentity — and checks that each agrees across
// worker-pool sizes. Regenerate with `go test -run TestGoldenSkew3D
// -update` only for a deliberate output change.
func TestGoldenSkew3D(t *testing.T) {
	var b strings.Builder
	for _, name := range goldenSkew3DExamples {
		for _, procs := range goldenProcs {
			writeGoldenRecord(&b, name, goldenSkew3DParams, Skewed, procs)
			checkPoolSizeInvariance(t, name, goldenSkew3DParams, Skewed, procs)
		}
	}
	checkGolden(t, goldenSkew3DFile, b.String())
}
