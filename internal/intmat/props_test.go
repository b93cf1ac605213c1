package intmat_test

// Property-style invariant tests for the normal forms and solvers, run
// from an external test package so they exercise only the exported API.
// The verify package owns the invariant definitions; these tests drive
// them over randomized matrices, sharded across goroutines so `go test
// -race` covers concurrent use of the (stateless) intmat entry points.

import (
	"math/rand"
	"sync"
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/verify"
)

func randomMat(rnd *rand.Rand, maxDim int, maxAbs int64) intmat.Mat {
	rows := 1 + rnd.Intn(maxDim)
	cols := 1 + rnd.Intn(maxDim)
	m := intmat.NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rnd.Int63n(2*maxAbs+1)-maxAbs)
		}
	}
	return m
}

// TestNormalFormPropertiesParallel runs the HNF/SNF contracts over
// randomized matrices on several goroutines at once. The entry points are
// pure functions of their inputs; the race detector confirms no shared
// mutable state sneaks in.
func TestNormalFormPropertiesParallel(t *testing.T) {
	const shards = 4
	const perShard = 150
	var wg sync.WaitGroup
	errs := make(chan error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for i := 0; i < perShard; i++ {
				m := randomMat(rnd, 4, 12)
				if err := verify.CheckHNF(m); err != nil {
					errs <- err
					return
				}
				if err := verify.CheckSNF(m); err != nil {
					errs <- err
					return
				}
			}
		}(int64(100 + s))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSolveIntLeftRoundTrip asserts that when x·A = b is solvable, the
// returned solution actually reproduces b, and that membership agrees
// with InRowLattice.
func TestSolveIntLeftRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	solved := 0
	for i := 0; i < 400; i++ {
		a := randomMat(rnd, 3, 6)
		b := make([]int64, a.Cols())
		if i%2 == 0 {
			// Build b from a known integer combination so solvable cases
			// are well represented.
			x := make([]int64, a.Rows())
			for k := range x {
				x[k] = rnd.Int63n(9) - 4
			}
			var err error
			b, err = a.MulVecChecked(x)
			if err != nil {
				continue
			}
		} else {
			for k := range b {
				b[k] = rnd.Int63n(13) - 6
			}
		}
		x, ok, err := intmat.SolveIntLeftChecked(a, b)
		if err != nil {
			continue // reported overflow is a legal outcome
		}
		if in, err := intmat.InRowLattice(a, b); err != nil || ok != in {
			t.Fatalf("SolveIntLeftChecked solvable=%v disagrees with InRowLattice for A=%v b=%v", ok, a, b)
		}
		if !ok {
			continue
		}
		solved++
		got, err := a.MulVecChecked(x)
		if err != nil {
			t.Fatalf("solution x=%v for A=%v overflows on substitution", x, a)
		}
		for k := range b {
			if got[k] != b[k] {
				t.Fatalf("x·A = %v != b = %v for A=%v x=%v", got, b, a, x)
			}
		}
	}
	if solved < 100 {
		t.Fatalf("only %d solvable systems exercised", solved)
	}
}
