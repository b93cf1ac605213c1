package intmat

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"looppart/internal/rational"
)

func TestCheckedAdd(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
		ok   bool
	}{
		{0, 0, 0, true},
		{1, 2, 3, true},
		{-5, 3, -2, true},
		{math.MaxInt64, 0, math.MaxInt64, true},
		{math.MaxInt64, 1, 0, false},
		{math.MinInt64, -1, 0, false},
		{math.MinInt64, math.MaxInt64, -1, true},
		{math.MaxInt64, math.MaxInt64, 0, false},
		{math.MinInt64, math.MinInt64, 0, false},
		{1 << 62, 1 << 62, 0, false},
		{-(1 << 62), -(1 << 62), math.MinInt64, true},
	}
	for _, c := range cases {
		got, ok := CheckedAdd(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CheckedAdd(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestCheckedMul(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
		ok   bool
	}{
		{0, math.MinInt64, 0, true},
		{math.MinInt64, 0, 0, true},
		{3, 7, 21, true},
		{-3, 7, -21, true},
		{math.MinInt64, 1, math.MinInt64, true},
		{1, math.MinInt64, math.MinInt64, true},
		{math.MinInt64, -1, 0, false},
		{math.MinInt64, 2, 0, false},
		{1 << 32, 1 << 31, 0, false},
		{-(1 << 32), 1 << 31, math.MinInt64, true}, // exactly -2^63
		{1 << 31, 1 << 31, 1 << 62, true},
		{math.MaxInt64, math.MaxInt64, 0, false},
		{math.MaxInt64, -1, -math.MaxInt64, true},
	}
	for _, c := range cases {
		got, ok := CheckedMul(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CheckedMul(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestCheckedNeg(t *testing.T) {
	if v, ok := CheckedNeg(5); !ok || v != -5 {
		t.Errorf("CheckedNeg(5) = %d, %v", v, ok)
	}
	if v, ok := CheckedNeg(math.MinInt64); ok {
		t.Errorf("CheckedNeg(MinInt64) = %d, %v; want ok=false", v, ok)
	}
	if v, ok := CheckedNeg(math.MaxInt64); !ok || v != math.MinInt64+1 {
		t.Errorf("CheckedNeg(MaxInt64) = %d, %v", v, ok)
	}
}

func TestSaturating(t *testing.T) {
	if got := SatAdd(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Errorf("SatAdd(MaxInt64, 1) = %d", got)
	}
	if got := SatAdd(math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("SatAdd(MinInt64, -1) = %d", got)
	}
	if got := SatAdd(40, 2); got != 42 {
		t.Errorf("SatAdd(40, 2) = %d", got)
	}
	if got := SatMul(math.MaxInt64, 2); got != math.MaxInt64 {
		t.Errorf("SatMul(MaxInt64, 2) = %d", got)
	}
	if got := SatMul(math.MaxInt64, -2); got != math.MinInt64 {
		t.Errorf("SatMul(MaxInt64, -2) = %d", got)
	}
	if got := SatMul(-6, 7); got != -42 {
		t.Errorf("SatMul(-6, 7) = %d", got)
	}
	// Saturated values must still order correctly against exact ones.
	if !(SatMul(1<<40, 1<<40) > SatMul(1<<30, 1<<30)) {
		t.Error("saturated product does not compare as worse than exact product")
	}
}

func TestDetCheckedBigFallback(t *testing.T) {
	// Entries large enough that Bareiss int64 intermediates wrap, but the
	// determinant itself fits: the big.Int fallback must recover it.
	const k = int64(1) << 32
	m := FromRows([][]int64{
		{k, 1, 0},
		{1, k, 1},
		{0, 1, k},
	})
	// det = k(k²−1) − k = k³ − 2k, which overflows int64 for k = 2^32, so
	// DetChecked must report ErrOverflow while DetBig stays exact.
	if _, err := m.DetChecked(); !errors.Is(err, ErrOverflow) {
		t.Fatalf("DetChecked: want ErrOverflow, got %v", err)
	}
	want := new(big.Int).Mul(big.NewInt(k), big.NewInt(k))
	want.Mul(want, big.NewInt(k))
	want.Sub(want, new(big.Int).Mul(big.NewInt(2), big.NewInt(k)))
	if got := m.DetBig(); got.Cmp(want) != 0 {
		t.Errorf("DetBig = %s, want %s", got, want)
	}

	// Representable determinant with wrapping intermediates: 2x2 with huge
	// off-diagonal cancellation.
	const h = int64(1) << 62
	m2 := FromRows([][]int64{
		{h, h - 1},
		{h - 1, h - 2},
	})
	// det = h(h−2) − (h−1)² = −1: intermediates overflow, value is tiny.
	d, err := m2.DetChecked()
	if err != nil {
		t.Fatalf("DetChecked big fallback: %v", err)
	}
	if d != -1 {
		t.Errorf("DetChecked = %d, want -1", d)
	}
}

func TestDetCheckedShapeError(t *testing.T) {
	m := NewMat(2, 3)
	_, err := m.DetChecked()
	var se *ShapeError
	if !errors.As(err, &se) {
		t.Fatalf("DetChecked non-square: want ShapeError, got %v", err)
	}
	if se.Op != "Det" || se.Rows != 2 || se.Cols != 3 {
		t.Errorf("ShapeError = %+v", se)
	}
}

func TestMulCheckedOverflow(t *testing.T) {
	big1 := Diag(math.MaxInt64, math.MaxInt64)
	if _, err := big1.MulChecked(big1); !errors.Is(err, ErrOverflow) {
		t.Errorf("MulChecked of huge diagonals: want ErrOverflow, got %v", err)
	}
	a := FromRows([][]int64{{1, 2}, {3, 4}})
	b := FromRows([][]int64{{5, 6}, {7, 8}})
	p, err := a.MulChecked(b)
	if err != nil {
		t.Fatalf("MulChecked: %v", err)
	}
	if want := FromRows([][]int64{{19, 22}, {43, 50}}); !p.Equal(want) {
		t.Errorf("MulChecked = %v, want %v", p, want)
	}
}

func TestMulVecCheckedOverflow(t *testing.T) {
	m := Diag(math.MaxInt64)
	if _, err := m.MulVecChecked([]int64{2}); !errors.Is(err, ErrOverflow) {
		t.Errorf("MulVecChecked: want ErrOverflow, got %v", err)
	}
	got, err := FromRows([][]int64{{1, 2}, {3, 4}}).MulVecChecked([]int64{5, 6})
	if err != nil {
		t.Fatalf("MulVecChecked: %v", err)
	}
	if got[0] != 23 || got[1] != 34 {
		t.Errorf("MulVecChecked = %v, want [23 34]", got)
	}
}

func TestHNFCheckedOverflow(t *testing.T) {
	// A row operation k·row with k derived from a huge quotient must report
	// overflow instead of wrapping.
	m := FromRows([][]int64{
		{1, math.MaxInt64},
		{2, math.MaxInt64},
	})
	if _, err := HNFChecked(m); err != nil && !errors.Is(err, ErrOverflow) {
		t.Errorf("HNFChecked: unexpected error kind: %v", err)
	}
	// Small matrices must round-trip without error.
	if _, err := HNFChecked(FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, 4, 16}})); err != nil {
		t.Errorf("HNFChecked small: %v", err)
	}
}

func TestSNFCheckedSmall(t *testing.T) {
	r, err := SNFChecked(FromRows([][]int64{{2, 4, 4}, {-6, 6, 12}, {10, 4, 16}}))
	if err != nil {
		t.Fatalf("SNFChecked: %v", err)
	}
	// d₁ = gcd(entries) = 2, d₁d₂ = gcd(2×2 minors) = 4, d₁d₂d₃ = det = 624.
	want := []int64{2, 2, 156}
	if len(r.Invariants) != len(want) {
		t.Fatalf("invariants = %v, want %v", r.Invariants, want)
	}
	for i, v := range want {
		if r.Invariants[i] != v {
			t.Fatalf("invariants = %v, want %v", r.Invariants, want)
		}
	}
}

func TestSolveLeft(t *testing.T) {
	// x·[[2,1],[1,3]] = (5,10): x = (1,3), since (1·2+3·1, 1·1+3·3) = (5,10).
	m := FromRows([][]int64{{2, 1}, {1, 3}})
	num, den, err := SolveLeft(m, []int64{5, 10})
	if err != nil || den != 5 || num[0] != 5 || num[1] != 15 {
		t.Fatalf("SolveLeft = %v/%d, %v; want [5 15]/5", num, den, err)
	}
	// Singular: no solution, no error.
	if num, den, err := SolveLeft(FromRows([][]int64{{1, 2}, {2, 4}}), []int64{1, 2}); err != nil || den != 0 || num != nil {
		t.Errorf("singular SolveLeft = %v/%d, %v", num, den, err)
	}
	// A determinant beyond int64 is an overflow, not a wrong answer.
	huge := Diag(math.MaxInt64, math.MaxInt64)
	if _, _, err := SolveLeft(huge, []int64{1, 1}); !errors.Is(err, ErrOverflow) {
		t.Errorf("SolveLeft of huge diagonal: want ErrOverflow, got %v", err)
	}
	if _, _, err := SolveLeft(m, []int64{1}); err == nil {
		t.Error("SolveLeft accepted a short right-hand side")
	}
}

// TestSolveLeftIntRandom checks Cramer's rule against the rational
// inverse: x = b·m⁻¹, integral exactly when den divides every numerator.
func TestSolveLeftIntRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3)
		m := randMat(rng, n, n, 5)
		b := make([]int64, n)
		for i := range b {
			b[i] = int64(rng.Intn(19) - 9)
		}
		if trial%2 == 0 {
			// Half the trials take b = x·m for integral x.
			x := make([]int64, n)
			for i := range x {
				x[i] = int64(rng.Intn(9) - 4)
			}
			b = mulVec(t, m, x)
		}
		num, den, err := SolveLeft(m, b)
		if err != nil {
			t.Fatal(err)
		}
		inv, ok := m.ToRat().Inverse()
		if ok != (den != 0) {
			t.Fatalf("SolveLeft den %d, rational inverse ok=%v for %v", den, ok, m)
		}
		if !ok {
			continue
		}
		for j := 0; j < n; j++ {
			want := rational.Zero
			for k := 0; k < n; k++ {
				want = want.Add(rational.FromInt(b[k]).Mul(inv.At(k, j)))
			}
			if got := rational.New(num[j], den); !got.Equal(want) {
				t.Fatalf("x[%d] = %v, want %v (m=%v b=%v)", j, got, want, m, b)
			}
		}
	}
}

func TestRankEdgeCases(t *testing.T) {
	if got := rank(t, NewMat(0, 0)); got != 0 {
		t.Errorf("rank of empty = %d", got)
	}
	if got := rank(t, NewMat(3, 2)); got != 0 {
		t.Errorf("rank of zero 3x2 = %d", got)
	}
}

// TestMaxIndependentColsMatchesGreedyScan checks the HNF pivot columns
// against the definition they replace: scan the columns left to right and
// keep each one that raises the rank.
func TestMaxIndependentColsMatchesGreedyScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		r, c := 1+rng.Intn(4), 1+rng.Intn(5)
		m := randMat(rng, r, c, 4)
		if c > 1 && trial%2 == 0 {
			// Force a dependent column: a combination of two others.
			j, k, d := rng.Intn(c), rng.Intn(c), rng.Intn(c)
			for i := 0; i < r; i++ {
				m.Set(i, d, 2*m.At(i, j)-m.At(i, k))
			}
		}
		var greedy []int
		for j := 0; j < c; j++ {
			if rank(t, m.SelectCols(append(append([]int{}, greedy...), j))) > len(greedy) {
				greedy = append(greedy, j)
			}
		}
		got, err := m.MaxIndependentCols()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, greedy) {
			t.Fatalf("trial %d: MaxIndependentCols = %v, greedy scan %v for %v", trial, got, greedy, m)
		}
		if rank(t, m) != len(got) {
			t.Fatalf("trial %d: rank %d, %d independent columns for %v", trial, rank(t, m), len(got), m)
		}
	}
}

func TestMulVecIntoOverflow(t *testing.T) {
	out := make([]int64, 1)
	if err := Diag(math.MaxInt64).MulVecInto([]int64{2}, out); !errors.Is(err, ErrOverflow) {
		t.Errorf("MulVecInto: want ErrOverflow, got %v", err)
	}
	out = make([]int64, 2)
	if err := FromRows([][]int64{{1, 2}, {3, 4}}).MulVecInto([]int64{5, 6}, out); err != nil || out[0] != 23 || out[1] != 34 {
		t.Errorf("MulVecInto = %v, %v; want [23 34]", out, err)
	}
}
