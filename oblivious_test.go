package looppart

import (
	"strings"
	"testing"
)

const obliviousStencilSrc = `
doall (i, 0, 31)
  doall (j, 0, 31)
    A[i,j] = A[i,j-1] + B[i,j]
  enddoall
enddoall
`

// The cache-oblivious plan's defining property: its locality must hold up
// across cache sizes it never saw. Replaying the same plan on caches of
// 64, 128, and 256 lines, the miss counts must stay within a constant
// factor — a tiling tuned to one size would blow past this on the others.
func TestObliviousConstantFactorAcrossCacheSizes(t *testing.T) {
	prog := MustParse(obliviousStencilSrc, nil)
	plan, err := prog.Partition(4, Oblivious)
	if err != nil {
		t.Fatalf("oblivious partition: %v", err)
	}
	if plan.Oblivious == nil || !plan.Concrete() {
		t.Fatalf("concrete nest must yield a concrete oblivious plan, got %v", plan)
	}
	var lo, hi int64
	for _, lines := range []int{64, 128, 256} {
		m, err := plan.Simulate(SimOptions{CacheLines: lines})
		if err != nil {
			t.Fatalf("simulate at %d lines: %v", lines, err)
		}
		misses := m.Misses()
		if misses <= 0 {
			t.Fatalf("replay at %d lines measured no misses", lines)
		}
		if lo == 0 || misses < lo {
			lo = misses
		}
		if misses > hi {
			hi = misses
		}
	}
	const maxRatio = 8
	if hi > maxRatio*lo {
		t.Fatalf("miss counts across cache sizes spread %d..%d, beyond the constant factor %d", lo, hi, maxRatio)
	}
}

// Every processor must receive work when the space is large enough, and
// assignments must be in range and deterministic.
func TestObliviousAssignCoversProcessors(t *testing.T) {
	prog := MustParse(obliviousStencilSrc, nil)
	const procs = 8
	plan, err := prog.Partition(procs, Oblivious)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	counts := make([]int64, procs)
	for i := int64(0); i < 32; i++ {
		for j := int64(0); j < 32; j++ {
			p := plan.Assign([]int64{i, j})
			if p < 0 || p >= procs {
				t.Fatalf("assign(%d,%d) = %d out of range", i, j, p)
			}
			if q := plan.Assign([]int64{i, j}); q != p {
				t.Fatalf("assign not deterministic at (%d,%d): %d vs %d", i, j, p, q)
			}
			counts[p]++
		}
	}
	for p, c := range counts {
		if c == 0 {
			t.Fatalf("processor %d received no iterations: %v", p, counts)
		}
	}
}

// A `?N` nest parses, plans only under the oblivious strategy (Auto
// routes there), and refuses concrete replay.
func TestObliviousSymbolicBounds(t *testing.T) {
	src := `
doall (i, 0, ?N)
  doall (j, 0, 31)
    A[i,j] = A[i,j-1]
  enddoall
enddoall
`
	prog, err := Parse(src, nil)
	if err != nil {
		t.Fatalf("parse symbolic nest: %v", err)
	}
	if !prog.Nest.Symbolic() {
		t.Fatal("nest should report symbolic bounds")
	}
	if !strings.Contains(prog.Nest.String(), "?N") {
		t.Fatalf("rendering lost the symbolic bound:\n%s", prog.Nest)
	}

	if _, err := prog.Partition(4, Rect); err == nil || !strings.Contains(err.Error(), "symbolic") {
		t.Fatalf("rect on symbolic bounds = %v, want symbolic-bounds refusal", err)
	}

	plan, err := prog.Partition(4, Oblivious)
	if err != nil {
		t.Fatalf("oblivious partition: %v", err)
	}
	if plan.Concrete() {
		t.Fatal("symbolic plan must not carry a concrete assignment")
	}
	if !plan.Oblivious.Symbolic {
		t.Fatal("plan descriptor lost the symbolic flag")
	}
	if _, err := plan.Simulate(SimOptions{}); err == nil {
		t.Fatal("simulating a symbolic plan must fail")
	}
	if err := plan.ExecuteOn(nil); err == nil {
		t.Fatal("executing a symbolic plan must fail")
	}
	if _, err := plan.LoadImbalance(); err == nil {
		t.Fatal("load imbalance of a symbolic plan must fail")
	}

	auto, err := prog.Partition(4, Auto)
	if err != nil {
		t.Fatalf("auto on symbolic nest: %v", err)
	}
	if auto.Strategy != Oblivious {
		t.Fatalf("auto resolved %v, want oblivious", auto.Strategy)
	}
}
