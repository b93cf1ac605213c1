package intmat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"looppart/internal/rational"
)

func TestNewAndAccessors(t *testing.T) {
	m := NewMat(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %d", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("At(0,0) = %d", m.At(0, 0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMat(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]int64{{1, 2}, {3}})
}

func TestIdentityDiag(t *testing.T) {
	if !Identity(3).Equal(Diag(1, 1, 1)) {
		t.Error("Identity(3) != Diag(1,1,1)")
	}
	d := Diag(2, 5)
	if d.At(0, 0) != 2 || d.At(1, 1) != 5 || d.At(0, 1) != 0 {
		t.Error("Diag wrong")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]int64{{1, 2}, {3, 4}})
	b := FromRows([][]int64{{5, 6}, {7, 8}})
	want := FromRows([][]int64{{19, 22}, {43, 50}})
	if got := mul(t, a, b); !got.Equal(want) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	if got := mul(t, a, Identity(2)); !got.Equal(a) {
		t.Errorf("a·I = %v", got)
	}
}

func TestMulVecRowConvention(t *testing.T) {
	// Paper Example 1: reference A(i3+2, 5, i2-1, 4) in a triply nested
	// loop has G with columns picking out i3 and i2.
	g := FromRows([][]int64{
		{0, 0, 0, 0},
		{0, 0, 1, 0},
		{1, 0, 0, 0},
	})
	i := []int64{10, 20, 30}
	got := mulVec(t, g, i)
	want := []int64{30, 0, 20, 0}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("i·G = %v, want %v", got, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]int64{{1, 2, 3}, {4, 5, 6}})
	want := FromRows([][]int64{{1, 4}, {2, 5}, {3, 6}})
	if got := a.Transpose(); !got.Equal(want) {
		t.Errorf("Transpose = %v", got)
	}
}

func TestDetSmall(t *testing.T) {
	cases := []struct {
		m    Mat
		want int64
	}{
		{Identity(3), 1},
		{FromRows([][]int64{{1, 1}, {1, -1}}), -2}, // Example 10 class B
		{FromRows([][]int64{{1, 0}, {1, 1}}), 1},   // Example 6
		{FromRows([][]int64{{2, 0}, {0, 3}}), 6},
		{FromRows([][]int64{{1, 2}, {2, 4}}), 0},
		{FromRows([][]int64{{0, 1}, {1, 0}}), -1},
		{NewMat(0, 0), 1},
		{FromRows([][]int64{{0, 2, 3}, {1, 0, 2}, {3, 1, 0}}), 15},
	}
	for _, c := range cases {
		if got := det(t, c.m); got != c.want {
			t.Errorf("Det(%v) = %d, want %d", c.m, got, c.want)
		}
	}
}

// TestDetNonSquarePanics: DetBig, the exact determinant that never
// overflows, panics on a non-square receiver — a shape bug, not an input
// (DetChecked reports it as a ShapeError instead).
func TestDetNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DetBig of non-square did not panic")
		}
	}()
	NewMat(2, 3).DetBig()
}

func TestDetMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		m := NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, int64(rng.Intn(11)-5))
			}
		}
		want := m.ToRat().Det()
		if got := det(t, m); !rational.FromInt(got).Equal(want) {
			t.Fatalf("trial %d: Bareiss Det(%v)=%d, rational Det=%v", trial, m, got, want)
		}
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		m    Mat
		want int
	}{
		{Identity(3), 3},
		{FromRows([][]int64{{1, 2}, {2, 4}}), 1},
		{FromRows([][]int64{{1, 2, 1}, {0, 0, 1}}), 2}, // Example 7
		{NewMat(2, 2), 0},
		{FromRows([][]int64{{1, 1, 1}}), 1},
		{FromRows([][]int64{{1, 0}, {0, 1}, {1, 1}}), 2},
	}
	for _, c := range cases {
		if got := rank(t, c.m); got != c.want {
			t.Errorf("Rank(%v) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestUnimodular(t *testing.T) {
	if !FromRows([][]int64{{1, 0}, {1, 1}}).IsUnimodular() {
		t.Error("Example 6 G should be unimodular")
	}
	if FromRows([][]int64{{1, 1}, {1, -1}}).IsUnimodular() {
		t.Error("Example 10 G (det -2) is not unimodular")
	}
	if !FromRows([][]int64{{1, 1}, {1, -1}}).IsNonsingular() {
		t.Error("Example 10 G is nonsingular")
	}
	if NewMat(2, 3).IsUnimodular() {
		t.Error("non-square cannot be unimodular")
	}
}

func TestZeroColsAndNonZeroCols(t *testing.T) {
	g := FromRows([][]int64{
		{0, 0, 0, 0},
		{0, 0, 1, 0},
		{1, 0, 0, 0},
	})
	got := g.NonZeroCols()
	want := []int{0, 2}
	if len(got) != len(want) {
		t.Fatalf("NonZeroCols = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NonZeroCols = %v, want %v", got, want)
		}
	}
	sel := g.SelectCols(got)
	if sel.Rows() != 3 || sel.Cols() != 2 {
		t.Fatalf("SelectCols shape %dx%d", sel.Rows(), sel.Cols())
	}
}

func TestMaxIndependentCols(t *testing.T) {
	// Example 7: G = [[1,2,1],[0,0,1]]; first and third columns independent.
	g := FromRows([][]int64{{1, 2, 1}, {0, 0, 1}})
	got, err := g.MaxIndependentCols()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("MaxIndependentCols = %v, want [0 2]", got)
	}
	gp := g.SelectCols(got)
	want := FromRows([][]int64{{1, 1}, {0, 1}})
	if !gp.Equal(want) {
		t.Fatalf("G' = %v, want %v", gp, want)
	}
	if !gp.IsUnimodular() {
		t.Error("Example 7 G' should be unimodular")
	}

	// Example 10 class C: C(i,2i,i+2j): G = [[1,2,1],[0,0,2]].
	g2 := FromRows([][]int64{{1, 2, 1}, {0, 0, 2}})
	got2, err := g2.MaxIndependentCols()
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 || got2[0] != 0 || got2[1] != 2 {
		t.Fatalf("MaxIndependentCols = %v, want [0 2]", got2)
	}
}

func TestWithRow(t *testing.T) {
	m := FromRows([][]int64{{1, 2}, {3, 4}})
	n := m.WithRow(0, []int64{9, 9})
	if m.At(0, 0) != 1 {
		t.Error("WithRow mutated receiver")
	}
	if n.At(0, 0) != 9 || n.At(1, 1) != 4 {
		t.Errorf("WithRow = %v", n)
	}
}

// TestGCDOfMinors checks the identity IsOnto rests on (Lemma 2 via the
// Smith form): the gcd of the k×k minors is the product of the first k
// invariant factors.
func TestGCDOfMinors(t *testing.T) {
	cases := []struct {
		g    Mat
		k    int
		want int64
	}{
		{Diag(2, 2), 2, 4},                    // all 2x2 minors are 4
		{Diag(2, 2), 1, 2},                    // 1x1 minors gcd 2
		{FromRows([][]int64{{1}, {1}}), 1, 1}, // A[i+j] in a 2-deep nest: onto
		{FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, -4, -16}}), 2, 12},
	}
	for _, c := range cases {
		if got := gcdOfMinors(t, c.g, c.k); got != c.want {
			t.Errorf("gcd of %d×%d minors of %v = %d, want %d", c.k, c.k, c.g, got, c.want)
		}
		prod := int64(1)
		for _, d := range snf(t, c.g).Invariants[:c.k] {
			prod *= d
		}
		if prod != c.want {
			t.Errorf("first %d invariants of %v multiply to %d, want %d", c.k, c.g, prod, c.want)
		}
	}
}

// gcdOfMinors is the gcd of every k×k subdeterminant of m, by brute force.
func gcdOfMinors(t testing.TB, m Mat, k int) int64 {
	var g int64
	var rows, cols []int
	var pick func(n, from int, into *[]int, done func())
	pick = func(n, from int, into *[]int, done func()) {
		if len(*into) == k {
			done()
			return
		}
		for i := from; i < n; i++ {
			*into = append(*into, i)
			pick(n, i+1, into, done)
			*into = (*into)[:len(*into)-1]
		}
	}
	pick(m.Rows(), 0, &rows, func() {
		pick(m.Cols(), 0, &cols, func() {
			g = rational.GCD(g, det(t, m.SubMatrix(rows, cols)))
		})
	})
	return g
}

func TestIsOntoIsOneToOne(t *testing.T) {
	// A[i+j]: onto but not one-to-one.
	g := FromRows([][]int64{{1}, {1}})
	if !isOnto(t, g) {
		t.Error("A[i+j] map should be onto")
	}
	if isOneToOne(t, g) {
		t.Error("A[i+j] map should not be one-to-one")
	}
	// A[2i]: one-to-one but not onto.
	g2 := FromRows([][]int64{{2}})
	if isOnto(t, g2) {
		t.Error("A[2i] map should not be onto")
	}
	if !isOneToOne(t, g2) {
		t.Error("A[2i] map should be one-to-one")
	}
	// Unimodular: both.
	g3 := FromRows([][]int64{{1, 0}, {1, 1}})
	if !isOnto(t, g3) || !isOneToOne(t, g3) {
		t.Error("unimodular map should be bijective")
	}
}

func randMat(rng *rand.Rand, r, c, lim int) Mat {
	m := NewMat(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, int64(rng.Intn(2*lim+1)-lim))
		}
	}
	return m
}

func TestPropDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		a, b := randMat(rng, n, n, 5), randMat(rng, n, n, 5)
		if det(t, mul(t, a, b)) != det(t, a)*det(t, b) {
			t.Fatalf("det(ab) != det(a)det(b) for %v, %v", a, b)
		}
	}
}

func TestPropTransposeDet(t *testing.T) {
	f := func(a, b, c, d int8) bool {
		m := FromRows([][]int64{{int64(a), int64(b)}, {int64(c), int64(d)}})
		return det(t, m) == det(t, m.Transpose())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRankBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(4), 1+rng.Intn(4)
		m := randMat(rng, r, c, 4)
		rk := rank(t, m)
		if rk < 0 || rk > r || rk > c {
			t.Fatalf("rank %d out of bounds for %dx%d", rk, r, c)
		}
		if rk != rank(t, m.Transpose()) {
			t.Fatalf("rank(m) != rank(mᵗ) for %v", m)
		}
	}
}

func BenchmarkDet4(b *testing.B) {
	m := FromRows([][]int64{
		{3, 1, 4, 1}, {5, 9, 2, 6}, {5, 3, 5, 8}, {9, 7, 9, 3},
	})
	for i := 0; i < b.N; i++ {
		_, _ = m.DetChecked()
	}
}

func BenchmarkMul4(b *testing.B) {
	m := FromRows([][]int64{
		{3, 1, 4, 1}, {5, 9, 2, 6}, {5, 3, 5, 8}, {9, 7, 9, 3},
	})
	for i := 0; i < b.N; i++ {
		_, _ = m.MulChecked(m)
	}
}

// The helpers below run the package's error-returning operations on
// inputs small enough never to overflow, failing the test if one does.

func mul(t testing.TB, a, b Mat) Mat {
	t.Helper()
	p, err := a.MulChecked(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mulVec(t testing.TB, m Mat, v []int64) []int64 {
	t.Helper()
	p, err := m.MulVecChecked(v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func det(t testing.TB, m Mat) int64 {
	t.Helper()
	d, err := m.DetChecked()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func rank(t testing.TB, m Mat) int {
	t.Helper()
	r, err := m.Rank()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func hnf(t testing.TB, m Mat) HNFResult {
	t.Helper()
	h, err := HNFChecked(m)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func snf(t testing.TB, m Mat) SNFResult {
	t.Helper()
	s, err := SNFChecked(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func isOnto(t testing.TB, m Mat) bool {
	t.Helper()
	ok, err := IsOnto(m)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func isOneToOne(t testing.TB, m Mat) bool {
	t.Helper()
	ok, err := IsOneToOne(m)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func solveIntLeft(t testing.TB, a Mat, v []int64) ([]int64, bool) {
	t.Helper()
	u, ok, err := SolveIntLeftChecked(a, v)
	if err != nil {
		t.Fatal(err)
	}
	return u, ok
}

func nullspace(t testing.TB, m Mat, f func(Mat) ([][]int64, error)) [][]int64 {
	t.Helper()
	b, err := f(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
