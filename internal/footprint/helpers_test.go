package footprint

import (
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/tile"
)

// The helpers below run the package's error-returning entry points on
// inputs small enough never to overflow, failing the test if one does.

func mustClass(t testing.TB, array string, g intmat.Mat, refs []Ref) Class {
	t.Helper()
	c, err := NewClass(array, g, refs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func exactClass(t testing.TB, c Class, pts [][]int64) int64 {
	t.Helper()
	n, err := ExactClassFootprint(c, pts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func exactClassFunc(t testing.TB, c Class, forEach func(yield func(p []int64) bool)) int64 {
	t.Helper()
	n, err := ExactClassFootprintFunc(c, forEach)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func exactArray(t testing.TB, a *Analysis, array string, pts [][]int64) int64 {
	t.Helper()
	n, err := a.ExactArrayFootprint(array, pts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func exactTotal(t testing.TB, a *Analysis, pts [][]int64) int64 {
	t.Helper()
	n, err := a.ExactTotalFootprint(pts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mulVec(t testing.TB, g intmat.Mat, v []int64) []int64 {
	t.Helper()
	p, err := g.MulVecChecked(v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func det(t testing.TB, m intmat.Mat) int64 {
	t.Helper()
	d, err := m.DetChecked()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func intersecting(t testing.TB, g intmat.Mat, a1, a2 []int64) bool {
	t.Helper()
	ok, err := Intersecting(g, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func uniformlyIntersecting(t testing.TB, r1, r2 Ref) bool {
	t.Helper()
	ok, err := UniformlyIntersecting(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// coeffs unwraps SpreadCoeffs, CumulativeSpreadCoeffs or PairCoeffs.
func coeffs(t testing.TB, solve func() ([]float64, bool, bool, error)) (u []float64, integral, ok bool) {
	t.Helper()
	u, integral, ok, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	return u, integral, ok
}

// enumRect is the exact footprint of the origin rectangle with extents ext.
func enumRect(t testing.TB, c Class, ext []int64) int64 {
	t.Helper()
	n, ok := c.enumerateTile(tile.Rect(ext...))
	if !ok {
		t.Fatalf("enumerating %v for %v overflowed", ext, c)
	}
	return n
}
