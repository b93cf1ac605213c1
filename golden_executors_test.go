package looppart

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"looppart/internal/cachesim"
	"looppart/internal/exec"
	"looppart/internal/layout"
	"looppart/internal/paperex"
	"looppart/internal/tile"
)

const goldenExecutorsFile = "testdata/golden_executors.txt"

// goldenExecutorStrategies adds oblivious, the one family whose
// assignment is neither a tiling nor a slab, to the legacy sweep.
var goldenExecutorStrategies = append(append([]Strategy(nil), goldenStrategies...), Oblivious)

// goldenExecutorParams halve goldenParams' N: every record replays the
// nest about eight times, and N=12 keeps the whole sweep to seconds.
var goldenExecutorParams = map[string]int64{"N": 12, "T": 2}

// TestGoldenExecutors pins what the ground-truth executors report for
// every golden plan: the coherence simulator's metrics on infinite and
// 8-line LRU caches (LRU counts expose any change in replay order), the
// line-granular replay at 4 elements per line, the mesh simulation for
// tile plans, the message-passing report, the sequential run's final
// store, and the load imbalance. The parallel executor's store is left
// out: a same-epoch cross-tile dependence makes its values depend on
// timing. Regenerate with `go test -run TestGoldenExecutors -update`
// only for a deliberate output change.
func TestGoldenExecutors(t *testing.T) {
	var b strings.Builder
	sequential := map[string]uint64{} // per example: the run ignores the plan
	goldenSweep(goldenExecutorStrategies, func(name string, strategy Strategy, procs int) {
		fmt.Fprintf(&b, "=== %s strategy=%s procs=%d ===\n", name, strategy, procs)
		prog, err := Parse(paperex.All[name], goldenExecutorParams)
		if err != nil {
			fmt.Fprintf(&b, "parse error: %v\n", err)
			return
		}
		plan, err := prog.Partition(procs, strategy)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return
		}
		writeExecutorRecord(t, &b, plan)
		if _, ok := sequential[name]; !ok {
			sequential[name] = sequentialChecksum(t, prog)
		}
		fmt.Fprintf(&b, "sequential store: %016x\n", sequential[name])
		imbalance, err := plan.LoadImbalance()
		if err != nil {
			t.Fatalf("%v: load imbalance: %v", plan, err)
		}
		fmt.Fprintf(&b, "load imbalance: %v\n", imbalance)
	})
	checkGolden(t, goldenExecutorsFile, b.String())
}

// allMetrics prints every cachesim.Metrics field, PerProc included,
// where Metrics.String prints a summary.
type allMetrics cachesim.Metrics

func writeExecutorRecord(t *testing.T, b *strings.Builder, plan *Plan) {
	t.Helper()
	for _, lines := range []int{0, 8} {
		m, err := plan.Simulate(SimOptions{CacheLines: lines})
		if err != nil {
			t.Fatalf("%v: simulate: %v", plan, err)
		}
		fmt.Fprintf(b, "simulate lines=%d: %+v\n", lines, allMetrics(m))
	}

	nest := plan.Program.Nest
	mm, err := layout.MapNest(nest, 4)
	if err != nil {
		t.Fatalf("%v: memory map: %v", plan, err)
	}
	m, err := cachesim.New(cachesim.DefaultConfig(plan.Procs))
	if err != nil {
		t.Fatal(err)
	}
	if err := cachesim.RunNestLines(m, nest, plan.Assign, mm); err != nil {
		t.Fatalf("%v: line replay: %v", plan, err)
	}
	fmt.Fprintf(b, "lines elems=4: %+v\n", allMetrics(m.Finish()))

	if plan.Tile != nil {
		for _, aligned := range []bool{true, false} {
			m, err := plan.SimulateMesh(MeshOptions{Aligned: aligned})
			if err != nil {
				t.Fatalf("%v: mesh: %v", plan, err)
			}
			fmt.Fprintf(b, "mesh aligned=%t: %+v\n", aligned, allMetrics(m))
		}
	}

	if rep, err := plan.ExecuteMessagePassing(); err != nil {
		fmt.Fprintf(b, "msgexec error: %v\n", err)
	} else {
		fmt.Fprintf(b, "msgexec: %+v\n", *rep)
	}
}

// sequentialChecksum runs the program's nest sequentially over
// deterministic non-zero data and hashes the final store.
func sequentialChecksum(t *testing.T, prog *Program) uint64 {
	t.Helper()
	st, err := exec.StoreFor(prog.Nest)
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range st {
		arr.Fill(func(idx []int64) float64 {
			h := int64(1)
			for _, v := range idx {
				h = h*31 + v
			}
			return float64(h%97) / 8
		})
	}
	exec.RunSequential(prog.Nest, st)
	return storeChecksum(st)
}

// storeChecksum hashes every element's bits, arrays in name order and
// elements in row-major order.
func storeChecksum(st exec.Store) uint64 {
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var word [8]byte
	for _, name := range names {
		arr := st[name]
		h.Write([]byte(name))
		tile.Bounds{Lo: arr.Lo, Hi: arr.Hi}.ForEach(func(idx []int64) bool {
			bits := math.Float64bits(arr.At(idx))
			for k := range word {
				word[k] = byte(bits >> (8 * k))
			}
			h.Write(word[:])
			return true
		})
	}
	return h.Sum64()
}
