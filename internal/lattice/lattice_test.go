package lattice

import (
	"math/rand"
	"testing"

	"looppart/internal/intmat"
)

func TestNewValidation(t *testing.T) {
	g := intmat.Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched bounds did not panic")
		}
	}()
	New(g, []int64{1})
}

func TestNegativeBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative bound did not panic")
		}
	}()
	New(intmat.Identity(2), []int64{1, -1})
}

func TestPointsIdentityLattice(t *testing.T) {
	// Identity generators with bounds (2,3): a 3×4 grid of 12 points.
	b := New(intmat.Identity(2), []int64{2, 3})
	if got := size(t, b); got != 12 {
		t.Errorf("Size = %d, want 12", got)
	}
	if !contains(t, b, []int64{0, 0}) || !contains(t, b, []int64{2, 3}) {
		t.Error("corners missing")
	}
	if contains(t, b, []int64{3, 0}) || contains(t, b, []int64{0, 4}) || contains(t, b, []int64{-1, 0}) {
		t.Error("out-of-box point contained")
	}
}

func TestPointsSkewedLattice(t *testing.T) {
	// Generators (1,1) and (1,-1): the Example 10 class-B lattice.
	g := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	b := New(g, []int64{2, 2})
	// 3×3 coefficient box, all images distinct (independent generators).
	if got := size(t, b); got != 9 {
		t.Errorf("Size = %d, want 9", got)
	}
	if !contains(t, b, []int64{2, 0}) { // 1·(1,1)+1·(1,-1)
		t.Error("(2,0) should be in lattice")
	}
	if contains(t, b, []int64{1, 0}) { // odd parity
		t.Error("(1,0) should not be in lattice")
	}
}

func TestContainsDependentGenerators(t *testing.T) {
	// Dependent generators (1,2) and (2,4).
	g := intmat.FromRows([][]int64{{1, 2}, {2, 4}})
	b := New(g, []int64{1, 1})
	// Points: (0,0),(1,2),(2,4),(3,6).
	if got := size(t, b); got != 4 {
		t.Errorf("Size = %d, want 4", got)
	}
	for _, p := range [][]int64{{0, 0}, {1, 2}, {2, 4}, {3, 6}} {
		if !contains(t, b, p) {
			t.Errorf("%v should be contained", p)
		}
	}
	if contains(t, b, []int64{1, 1}) || contains(t, b, []int64{4, 8}) {
		t.Error("non-member contained")
	}
}

func TestIntersectsTranslateTheorem3(t *testing.T) {
	// Example 10: â = (4,2) = 3·(1,1) + 1·(1,-1).
	g := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	b := New(g, []int64{10, 10})
	u, ok := intersects(t, b, []int64{4, 2})
	if !ok {
		t.Fatal("translated lattice should intersect")
	}
	if u[0] != 3 || u[1] != 1 {
		t.Fatalf("u = %v, want [3 1]", u)
	}
	// Too small a tile: bounds (2,2) cannot absorb u₀ = 3.
	b2 := New(g, []int64{2, 2})
	if _, ok := intersects(t, b2, []int64{4, 2}); ok {
		t.Error("translation exceeds bounds; should not intersect")
	}
	// Off-lattice translation never intersects: (1,0) has odd parity.
	if _, ok := intersects(t, b, []int64{1, 0}); ok {
		t.Error("off-lattice translation intersected")
	}
	// Example 10 class C: C(i+1,2i+2,i+2j+1) vs C(i,2i,i+2j-1):
	// offset diff (1,2,2) against reduced G' columns — checked in the
	// footprint package; here check the negative-coordinate symmetry.
	un, ok := intersects(t, b, []int64{-4, -2})
	if !ok || un[0] != -3 || un[1] != -1 {
		t.Fatalf("negative translation: u=%v ok=%v", un, ok)
	}
}

func TestIntersectsTranslateMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 300; trial++ {
		// Random independent 2×2 generators with small entries.
		var g intmat.Mat
		for {
			g = intmat.FromRows([][]int64{
				{int64(rng.Intn(7) - 3), int64(rng.Intn(7) - 3)},
				{int64(rng.Intn(7) - 3), int64(rng.Intn(7) - 3)},
			})
			if det, _ := g.DetChecked(); det != 0 {
				break
			}
		}
		bounds := []int64{int64(rng.Intn(4)), int64(rng.Intn(4))}
		b := New(g, bounds)
		tvec := []int64{int64(rng.Intn(13) - 6), int64(rng.Intn(13) - 6)}

		_, modelSays := intersects(t, b, tvec)

		pts := points(t, b)
		shifted := Translate(pts, tvec)
		exact := UnionSize(pts, shifted) < int64(len(pts))+int64(len(shifted))

		if modelSays != exact {
			t.Fatalf("trial %d: G=%v λ=%v t=%v: model=%v exact=%v",
				trial, g, bounds, tvec, modelSays, exact)
		}
	}
}

func TestUnionSizeModelLemma3(t *testing.T) {
	// Exact formula vs enumeration, independent generators.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 300; trial++ {
		var g intmat.Mat
		for {
			g = intmat.FromRows([][]int64{
				{int64(rng.Intn(5) - 2), int64(rng.Intn(5) - 2)},
				{int64(rng.Intn(5) - 2), int64(rng.Intn(5) - 2)},
			})
			if det, _ := g.DetChecked(); det != 0 {
				break
			}
		}
		bounds := []int64{int64(rng.Intn(4) + 1), int64(rng.Intn(4) + 1)}
		u := []int64{int64(rng.Intn(7) - 3), int64(rng.Intn(7) - 3)}
		tvec, _ := g.MulVecChecked(u) // translation on the lattice

		b := New(g, bounds)
		pts := points(t, b)
		exact := UnionSize(pts, Translate(pts, tvec))
		model := UnionSizeModel(bounds, u)
		if exact != model {
			t.Fatalf("trial %d: G=%v λ=%v u=%v: exact=%d model=%d",
				trial, g, bounds, u, exact, model)
		}
	}
}

func TestUnionSizeModelDisjoint(t *testing.T) {
	bounds := []int64{3, 3}
	// u exceeding a bound → disjoint → 2·16.
	if got := UnionSizeModel(bounds, []int64{4, 0}); got != 32 {
		t.Errorf("disjoint union = %d, want 32", got)
	}
	// Zero translation → same lattice → 16.
	if got := UnionSizeModel(bounds, []int64{0, 0}); got != 16 {
		t.Errorf("identical union = %d, want 16", got)
	}
}

func TestUnionSizeLinearizedApprox(t *testing.T) {
	// Linearized = exact + Π|uᵢ| (identity: 2ab − (a−u)(b−v) =
	// ab + ub + va − uv, linearized = ab + ub + va).
	bounds := []int64{9, 9}
	u := []int64{2, 3}
	exact := UnionSizeModel(bounds, u)
	lin := UnionSizeLinearized(bounds, u)
	if lin-exact != 2*3 {
		t.Errorf("lin−exact = %d, want 6", lin-exact)
	}
}

func TestCoordinatesUnbounded(t *testing.T) {
	g := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	b := New(g, []int64{1, 1})
	u, ok, err := b.Coordinates([]int64{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || u[0] != 50 || u[1] != 50 {
		t.Fatalf("coordinates = %v ok=%v", u, ok)
	}
}

func TestTranslateAndUnionSize(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}}
	sh := Translate(pts, []int64{1, 0})
	if got := UnionSize(pts, sh); got != 3 {
		t.Errorf("union = %d, want 3", got)
	}
	if got := UnionSize(pts); got != 2 {
		t.Errorf("union = %d, want 2", got)
	}
	if got := UnionSize(); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}

func BenchmarkIntersectsTranslate(b *testing.B) {
	g := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	bl := New(g, []int64{100, 100})
	t := []int64{4, 2}
	for i := 0; i < b.N; i++ {
		_, _, _ = bl.IntersectsTranslate(t)
	}
}

func BenchmarkPointsEnumeration(b *testing.B) {
	g := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	bl := New(g, []int64{15, 15})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = bl.Points()
	}
}

// The helpers below run the lattice queries on inputs small enough never
// to overflow, failing the test if one does.

func size(t testing.TB, b Bounded) int64 {
	t.Helper()
	n, err := b.Size()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func contains(t testing.TB, b Bounded, p []int64) bool {
	t.Helper()
	ok, err := b.Contains(p)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func intersects(t testing.TB, b Bounded, tv []int64) ([]int64, bool) {
	t.Helper()
	u, ok, err := b.IntersectsTranslate(tv)
	if err != nil {
		t.Fatal(err)
	}
	return u, ok
}

func points(t testing.TB, b Bounded) []Point {
	t.Helper()
	pts, err := b.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}
