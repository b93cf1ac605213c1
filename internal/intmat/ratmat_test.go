package intmat

import (
	"math/rand"
	"testing"

	"looppart/internal/rational"
)

func TestRatMatInverse(t *testing.T) {
	m := FromRows([][]int64{{1, 0}, {1, 1}}).ToRat()
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("unimodular matrix reported singular")
	}
	if !m.Mul(inv).Equal(Identity(2).ToRat()) {
		t.Fatalf("m·m⁻¹ = %v", m.Mul(inv))
	}
	// Singular.
	s := FromRows([][]int64{{1, 2}, {2, 4}}).ToRat()
	if _, ok := s.Inverse(); ok {
		t.Error("singular matrix inverted")
	}
	// Non-square.
	if _, ok := NewRatMat(2, 3).Inverse(); ok {
		t.Error("non-square matrix inverted")
	}
}

func TestRatMatInverseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id3 := Identity(3).ToRat()
	for trial := 0; trial < 100; trial++ {
		m := randMat(rng, 3, 3, 5)
		if det(t, m) == 0 {
			continue
		}
		inv, ok := m.ToRat().Inverse()
		if !ok {
			t.Fatalf("nonsingular %v reported singular", m)
		}
		if !m.ToRat().Mul(inv).Equal(id3) {
			t.Fatalf("m·m⁻¹ != I for %v", m)
		}
		if !inv.Mul(m.ToRat()).Equal(id3) {
			t.Fatalf("m⁻¹·m != I for %v", m)
		}
	}
}

func TestRatMatDetAgainstInt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(4)
		m := randMat(rng, n, n, 5)
		if !m.ToRat().Det().Equal(rational.FromInt(det(t, m))) {
			t.Fatalf("rational det disagrees for %v", m)
		}
	}
}

func TestRatMatTransposeMul(t *testing.T) {
	a := FromRows([][]int64{{1, 2, 3}, {4, 5, 6}}).ToRat()
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", at.Rows(), at.Cols())
	}
	p := a.Mul(at) // 2x2
	if !p.At(0, 0).Equal(rational.FromInt(14)) || !p.At(1, 1).Equal(rational.FromInt(77)) {
		t.Fatalf("a·aᵗ = %v", p)
	}
}

func BenchmarkRatInverse3(b *testing.B) {
	m := FromRows([][]int64{{0, 2, 3}, {1, 0, 2}, {3, 1, 0}}).ToRat()
	for i := 0; i < b.N; i++ {
		_, _ = m.Inverse()
	}
}
