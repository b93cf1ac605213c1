package intmat

import (
	"math/rand"
	"testing"
)

func TestHNFBasic(t *testing.T) {
	a := FromRows([][]int64{{2, 4}, {3, 5}})
	res := hnf(t, a)
	// H must equal U·A.
	if !mul(t, res.U, a).Equal(res.H) {
		t.Fatalf("U·A != H: U=%v A=%v H=%v", res.U, a, res.H)
	}
	if !res.U.IsUnimodular() {
		t.Fatalf("U not unimodular: %v", res.U)
	}
	if res.Rank != 2 {
		t.Fatalf("rank = %d", res.Rank)
	}
	// Echelon with positive pivots.
	for k, col := range res.PivotCols {
		if res.H.At(k, col) <= 0 {
			t.Errorf("pivot %d at col %d is %d", k, col, res.H.At(k, col))
		}
		for i := k + 1; i < res.H.Rows(); i++ {
			if res.H.At(i, col) != 0 {
				t.Errorf("entry below pivot (%d,%d) nonzero", i, col)
			}
		}
		for i := 0; i < k; i++ {
			v := res.H.At(i, col)
			if v < 0 || v >= res.H.At(k, col) {
				t.Errorf("entry above pivot (%d,%d)=%d not reduced", i, col, v)
			}
		}
	}
}

func TestHNFRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		r, c := 1+rng.Intn(4), 1+rng.Intn(4)
		a := randMat(rng, r, c, 6)
		res := hnf(t, a)
		if !mul(t, res.U, a).Equal(res.H) {
			t.Fatalf("trial %d: U·A != H for %v", trial, a)
		}
		if !res.U.IsUnimodular() {
			t.Fatalf("trial %d: U not unimodular for %v", trial, a)
		}
		if res.Rank != rank(t, a) {
			t.Fatalf("trial %d: HNF rank %d != rank %d for %v", trial, res.Rank, rank(t, a), a)
		}
	}
}

func TestSolveIntLeft(t *testing.T) {
	// Lattice rows (1,1) and (1,-1): t=(4,2)=3·(1,1)+1·(1,-1) — the
	// Example 10 spread decomposition.
	a := FromRows([][]int64{{1, 1}, {1, -1}})
	u, ok := solveIntLeft(t, a, []int64{4, 2})
	if !ok {
		t.Fatal("(4,2) should be in the lattice")
	}
	if u[0] != 3 || u[1] != 1 {
		t.Fatalf("u = %v, want [3 1]", u)
	}
	// (1,0) is NOT in that lattice (components must have equal parity).
	if _, ok := solveIntLeft(t, a, []int64{1, 0}); ok {
		t.Error("(1,0) should not be in the lattice")
	}
	// (1,1) trivially in.
	u2, ok := solveIntLeft(t, a, []int64{1, 1})
	if !ok || u2[0] != 1 || u2[1] != 0 {
		t.Fatalf("u2 = %v ok=%v", u2, ok)
	}
}

func TestSolveIntLeftRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		r, c := 1+rng.Intn(3), 1+rng.Intn(3)
		a := randMat(rng, r, c, 5)
		// Construct t from a random integer combination.
		coef := make([]int64, r)
		for i := range coef {
			coef[i] = int64(rng.Intn(9) - 4)
		}
		tvec := mulVec(t, a, coef) // t = coef·A
		u, ok := solveIntLeft(t, a, tvec)
		if !ok {
			t.Fatalf("trial %d: constructed t=%v not found in lattice of %v", trial, tvec, a)
		}
		// Verify u·A == t.
		back := mulVec(t, a, u)
		for k := range tvec {
			if back[k] != tvec[k] {
				t.Fatalf("trial %d: u·A = %v != t = %v", trial, back, tvec)
			}
		}
	}
}

func TestSolveIntLeftNonMembers(t *testing.T) {
	// Lattice of (2,0),(0,2): even vectors only.
	a := Diag(2, 2)
	if _, ok := solveIntLeft(t, a, []int64{1, 2}); ok {
		t.Error("(1,2) not in 2Z×2Z")
	}
	if u, ok := solveIntLeft(t, a, []int64{-4, 6}); !ok || u[0] != -2 || u[1] != 3 {
		t.Errorf("(-4,6): u=%v ok=%v", u, ok)
	}
}

func TestInRowLattice(t *testing.T) {
	// A[2i] vs A[2i+1]: offsets differ by 1, lattice is 2Z — disjoint
	// footprints (paper's canonical non-intersecting example).
	a := FromRows([][]int64{{2}})
	if in, err := InRowLattice(a, []int64{1}); err != nil || in {
		t.Error("1 should not be in 2Z")
	}
	if in, err := InRowLattice(a, []int64{-6}); err != nil || !in {
		t.Error("-6 should be in 2Z")
	}
}

func TestSNFBasic(t *testing.T) {
	a := FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, -4, -16}})
	res := snf(t, a)
	if !mul(t, mul(t, res.U, a), res.V).Equal(res.S) {
		t.Fatalf("U·A·V != S")
	}
	if !res.U.IsUnimodular() || !res.V.IsUnimodular() {
		t.Fatal("U or V not unimodular")
	}
	// Known Smith form of this classic example: diag(2, 6, 12).
	want := []int64{2, 6, 12}
	if len(res.Invariants) != 3 {
		t.Fatalf("invariants = %v", res.Invariants)
	}
	for i, w := range want {
		if res.Invariants[i] != w {
			t.Fatalf("invariants = %v, want %v", res.Invariants, want)
		}
	}
}

func TestSNFRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(3), 1+rng.Intn(3)
		a := randMat(rng, r, c, 5)
		res := snf(t, a)
		if !mul(t, mul(t, res.U, a), res.V).Equal(res.S) {
			t.Fatalf("trial %d: U·A·V != S for %v", trial, a)
		}
		if !res.U.IsUnimodular() || !res.V.IsUnimodular() {
			t.Fatalf("trial %d: transforms not unimodular for %v", trial, a)
		}
		// Divisibility chain and positivity.
		for i := 0; i+1 < len(res.Invariants); i++ {
			if res.Invariants[i] <= 0 || res.Invariants[i+1]%res.Invariants[i] != 0 {
				t.Fatalf("trial %d: invariants %v not a divisor chain for %v", trial, res.Invariants, a)
			}
		}
		if len(res.Invariants) != rank(t, a) {
			t.Fatalf("trial %d: %d invariants, rank %d for %v", trial, len(res.Invariants), rank(t, a), a)
		}
		// Off-diagonal zero.
		for i := 0; i < res.S.Rows(); i++ {
			for j := 0; j < res.S.Cols(); j++ {
				if i != j && res.S.At(i, j) != 0 {
					t.Fatalf("trial %d: S not diagonal: %v", trial, res.S)
				}
			}
		}
	}
}

func TestSNFDetPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(3)
		a := randMat(rng, n, n, 4)
		res := snf(t, a)
		prod := int64(1)
		for _, v := range res.Invariants {
			prod *= v
		}
		if len(res.Invariants) < n {
			prod = 0
		}
		d := det(t, a)
		if d < 0 {
			d = -d
		}
		if prod != d {
			t.Fatalf("trial %d: Π invariants = %d, |det| = %d for %v", trial, prod, d, a)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {7, -2, -4}, {-7, -2, 3},
		{6, 3, 2}, {-6, 3, -2}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkHNF3x3(b *testing.B) {
	a := FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, 4, 16}})
	for i := 0; i < b.N; i++ {
		_, _ = HNFChecked(a)
	}
}

func BenchmarkSNF3x3(b *testing.B) {
	a := FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, 4, 16}})
	for i := 0; i < b.N; i++ {
		_, _ = SNFChecked(a)
	}
}

func BenchmarkSolveIntLeft(b *testing.B) {
	a := FromRows([][]int64{{1, 1}, {1, -1}})
	t := []int64{4, 2}
	for i := 0; i < b.N; i++ {
		_, _, _ = SolveIntLeftChecked(a, t)
	}
}

func TestLeftNullspaceInt(t *testing.T) {
	// G = [[1],[1]] (the A[i+j] map): left null space spanned by (1,-1).
	g := FromRows([][]int64{{1}, {1}})
	basis := nullspace(t, g, LeftNullspaceInt)
	if len(basis) != 1 {
		t.Fatalf("basis = %v", basis)
	}
	n := basis[0]
	if v := n[0]*1 + n[1]*1; v != 0 {
		t.Fatalf("n·G = %d for n = %v", v, n)
	}
	if n[0] == 0 && n[1] == 0 {
		t.Fatal("zero basis vector")
	}
	// Full-rank square matrix: empty null space.
	if b := nullspace(t, FromRows([][]int64{{1, 1}, {1, -1}}), LeftNullspaceInt); len(b) != 0 {
		t.Fatalf("nonsingular matrix has null space %v", b)
	}
}

func TestLeftNullspaceIntRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(4), 1+rng.Intn(4)
		m := randMat(rng, r, c, 4)
		basis := nullspace(t, m, LeftNullspaceInt)
		if len(basis) != r-rank(t, m) {
			t.Fatalf("trial %d: %d basis vectors, want %d for %v", trial, len(basis), r-rank(t, m), m)
		}
		for _, n := range basis {
			prod := mulVec(t, m, n)
			for _, v := range prod {
				if v != 0 {
					t.Fatalf("trial %d: n·m = %v != 0 for n=%v m=%v", trial, prod, n, m)
				}
			}
		}
	}
}

func TestRightNullspaceInt(t *testing.T) {
	// m = [[1,2]], right null space: x with x₁ + 2x₂ = 0 → (2,-1) scaled.
	m := FromRows([][]int64{{1, 2}})
	basis := nullspace(t, m, RightNullspaceInt)
	if len(basis) != 1 {
		t.Fatalf("basis = %v", basis)
	}
	if m.At(0, 0)*basis[0][0]+m.At(0, 1)*basis[0][1] != 0 {
		t.Fatalf("m·x != 0 for %v", basis[0])
	}
}
