package footprint

import (
	"math"
	"math/rand"
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/layout"
	"looppart/internal/paperex"
	"looppart/internal/tile"
)

func TestExample2PaperNumbers(t *testing.T) {
	// The paper's headline numbers (§3.1): partition a (100×1 column
	// strips) has 104 misses per tile on the B class; partition b
	// (10×10 blocks) has 140.
	a := analyze(t, paperex.Example2, nil)
	b := classOf(t, a, "B", 2)

	fpA, exA := b.RectFootprint([]int64{100, 1})
	if fpA != 104 || exA != Exact {
		t.Errorf("partition a: footprint = %v (%v), want 104 (exact)", fpA, exA)
	}
	fpB, exB := b.RectFootprint([]int64{10, 10})
	if fpB != 140 || exB != Exact {
		t.Errorf("partition b: footprint = %v (%v), want 140 (exact)", fpB, exB)
	}

	// Exact enumeration agrees.
	if got := enumRect(t, b, []int64{100, 1}); got != 104 {
		t.Errorf("enumerated partition a = %d", got)
	}
	if got := enumRect(t, b, []int64{10, 10}); got != 140 {
		t.Errorf("enumerated partition b = %d", got)
	}
}

func TestExample2SpreadCoeffs(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	b := classOf(t, a, "B", 2)
	u, integral, ok := coeffs(t, b.SpreadCoeffs)
	if !ok || !integral {
		t.Fatalf("u=%v integral=%v ok=%v", u, integral, ok)
	}
	// â = (4,4) = 4·(1,1) + 0·(1,-1).
	if u[0] != 4 || u[1] != 0 {
		t.Fatalf("u = %v, want [4 0]", u)
	}
}

func TestExample6FootprintFormula(t *testing.T) {
	// Example 6: L = [[L1,L1],[L2,0]], G = [[1,0],[1,1]].
	// Footprint of B[i+j,j] is |det LG| = L1·L2 (Equation 2); the paper's
	// full count is L1L2 + L1 + L2 including boundary points.
	a := analyze(t, paperex.Example6, nil)
	b := classOf(t, a, "B", 2)
	L1, L2 := int64(6), int64(4)
	tl := tile.Parallelepiped(intmat.FromRows([][]int64{{L1, L1}, {L2, 0}}))
	single := Class{Array: b.Array, G: b.G, Refs: b.Refs[:1], Reduced: b.Reduced}
	vol, ok := single.SingleFootprintVolume(tl)
	if !ok || vol != L1*L2 {
		t.Fatalf("|det LG| = %d, want %d", vol, L1*L2)
	}
	// Exact count of the half-open tile's footprint: the closed-tile
	// count of the paper is L1L2+L1+L2+1 points; our half-open tiles
	// contain exactly |det L| iterations and the unimodular G maps them
	// 1:1, so the single-reference footprint is exactly L1·L2.
	got := exactClass(t, single, tile.OriginPoints(tl))
	if got != L1*L2 {
		t.Fatalf("enumerated single footprint = %d, want %d", got, L1*L2)
	}
}

func TestExample6CumulativeTheorem2(t *testing.T) {
	// Cumulative footprint over both B references with â = (1,2):
	// |det LG| + |det LG(1→â)| + |det LG(2→â)|.
	a := analyze(t, paperex.Example6, nil)
	b := classOf(t, a, "B", 2)
	s := b.Spread()
	if s[0] != 1 || s[1] != 2 {
		t.Fatalf("spread = %v", s)
	}
	L := intmat.FromRows([][]int64{{5, 2}, {3, 7}}) // L11 L12; L21 L22
	tl := tile.Parallelepiped(L)
	lg, err := L.MulChecked(b.G)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Abs(float64(det(t, lg))) +
		math.Abs(float64(det(t, lg.WithRow(0, []int64{1, 2})))) +
		math.Abs(float64(det(t, lg.WithRow(1, []int64{1, 2}))))
	got, ex := b.TileFootprint(tl)
	if got != want || ex != Approximate {
		t.Fatalf("TileFootprint = %v (%v), want %v", got, ex, want)
	}
	// The model approximates the enumerated truth within the boundary
	// terms (~L1+L2+spread cross terms).
	exact := float64(exactClass(t, b, tile.OriginPoints(tl)))
	if math.Abs(got-exact) > 0.15*exact {
		t.Fatalf("model %v vs exact %v diverges", got, exact)
	}
}

func TestExample8CumulativeFootprint(t *testing.T) {
	// G = I, â = (2,3,4); footprint = LiLjLk + 2LjLk + 3LiLk + 4LiLj.
	a := analyze(t, paperex.Example8, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 3)
	Li, Lj, Lk := int64(4), int64(6), int64(8)
	got, ex := b.RectFootprintLinearized([]int64{Li, Lj, Lk})
	want := float64(Li*Lj*Lk + 2*Lj*Lk + 3*Li*Lk + 4*Li*Lj)
	if got != want || ex != Approximate {
		t.Fatalf("footprint = %v (%v), want %v", got, ex, want)
	}
	// Traffic drops the volume term.
	tr, _ := b.RectTrafficLinearized([]int64{Li, Lj, Lk})
	if tr != float64(2*Lj*Lk+3*Li*Lk+4*Li*Lj) {
		t.Fatalf("traffic = %v", tr)
	}
}

func TestExample8ModelVsEnumerationExactness(t *testing.T) {
	// For G = I the Theorem 4 formula overcounts only by the cross terms
	// of Lemma 3 (the model is the linearized form). Verify the model is
	// within the Π|uᵢ| cross-term budget of the enumerated truth.
	a := analyze(t, paperex.Example8, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 3)
	ext := []int64{5, 5, 5}
	model, _ := b.RectFootprintLinearized(ext)
	exact := float64(enumRect(t, b, ext))
	if model < exact {
		t.Fatalf("model %v below exact %v", model, exact)
	}
	// Cross-term budget: the linearization error of Lemma 3 is bounded
	// by Π(ûᵢ+1) for the class spread û = (2,3,4).
	if model-exact > 3*4*5 {
		t.Fatalf("model %v vs exact %v: error too large", model, exact)
	}
}

func TestExample9TwoClasses(t *testing.T) {
	// Rectangular tiles: total footprint = 2·L11·L22 + 4·L11 + 6·L22
	// (B contributes L11L22 + 2L22 + 1·L11; C contributes L11L22 + ...).
	a := analyze(t, paperex.Example9, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 2)
	c := classOf(t, a, "C", 2)

	// B: G = I, â = (2,1).
	ub, integral, ok := coeffs(t, b.SpreadCoeffs)
	if !ok || !integral || ub[0] != 2 || ub[1] != 1 {
		t.Fatalf("B u = %v", ub)
	}
	// C: G = [[1,0],[1,1]], â = (1,3) = u·G → u = (-2, 3)?? Solve:
	// u1(1,0)+u2(1,1) = (u1+u2, u2) = (1,3) → u2=3, u1=-2.
	uc, integral, ok := coeffs(t, c.SpreadCoeffs)
	if !ok || !integral || uc[0] != 2 || uc[1] != 3 {
		t.Fatalf("C u = %v (want |u| = [2 3])", uc)
	}

	L11, L22 := int64(12), int64(8)
	fb, _ := b.RectFootprintLinearized([]int64{L11, L22})
	fc, _ := c.RectFootprintLinearized([]int64{L11, L22})
	// B: L11L22 + 2L22 + 1L11; C: L11L22 + 2L22 + 3L11.
	wantB := float64(L11*L22 + 2*L22 + 1*L11)
	wantC := float64(L11*L22 + 2*L22 + 3*L11)
	if fb != wantB {
		t.Errorf("B footprint = %v, want %v", fb, wantB)
	}
	if fc != wantC {
		t.Errorf("C footprint = %v, want %v", fc, wantC)
	}
	// Sum of the â traffic terms: (2+2)L22 + (1+3)L11 = 4L22 + 4L11.
	// (The paper's inline total "4L11 + 6L22" counts the C-class terms in
	// raw data-space units; the Theorem 4 lattice form used here is the
	// sharper count. Both give the same optimization structure — the
	// closed-form ratio test lives in the partition package.)
	total, _ := a.RectTotalTrafficLinearized([]int64{L11, L22})
	if total != float64(4*L22+4*L11) {
		t.Errorf("total traffic = %v, want %v", total, float64(4*L22+4*L11))
	}
	// The exact (Lemma 3) traffic is sharper than the linearized form.
	exTotal, _ := a.RectTotalTraffic([]int64{L11, L22})
	if exTotal > total {
		t.Errorf("exact traffic %v exceeds linearized %v", exTotal, total)
	}
}

func TestExample10ClassFormulas(t *testing.T) {
	a := analyze(t, paperex.Example10, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 2)
	// â = (4,2) = 3·(1,1) + 1·(1,-1) → u = (3,1).
	u, integral, ok := coeffs(t, b.SpreadCoeffs)
	if !ok || !integral || u[0] != 3 || u[1] != 1 {
		t.Fatalf("B u = %v", u)
	}
	Li, Lj := int64(9), int64(5)
	fb, ex := b.RectFootprintLinearized([]int64{Li, Lj})
	// Π ext + u1·Lj + u2·Li = LiLj + 3Lj + 1Li (the paper's expression,
	// with the u-coefficient/extent pairing of Lemma 3).
	want := float64(Li*Lj + 3*Lj + 1*Li)
	if fb != want || ex != Approximate {
		t.Fatalf("B footprint = %v (%v), want %v", fb, ex, want)
	}
	// Exact Lemma 3 union: 2·45 − (9−3)(5−1) = 66 ≤ linearized 69.
	fbExact, exB := b.RectFootprint([]int64{Li, Lj})
	if fbExact != 66 || exB != Exact {
		t.Fatalf("B exact footprint = %v (%v), want 66", fbExact, exB)
	}
	// C pair: u = (0,1) → footprint = LiLj + 0·Lj + 1·Li; with a zero
	// u-component the linearized and exact forms coincide.
	c2 := classOf(t, a, "C", 2)
	uc, integral, ok := coeffs(t, c2.SpreadCoeffs)
	if !ok || !integral || uc[0] != 0 || uc[1] != 1 {
		t.Fatalf("C u = %v", uc)
	}
	fc, _ := c2.RectFootprint([]int64{Li, Lj})
	if fc != float64(Li*Lj+Li) {
		t.Fatalf("C footprint = %v, want %v", fc, float64(Li*Lj+Li))
	}
}

func TestExample10ModelMatchesEnumeration(t *testing.T) {
	// The non-unimodular B class (det −2): Theorem 4's lattice count is
	// exact — check against enumeration across tile shapes.
	a := analyze(t, paperex.Example10, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 2)
	for _, ext := range [][]int64{{4, 4}, {6, 2}, {2, 6}, {12, 3}, {5, 5}} {
		model, ex := b.RectFootprint(ext)
		exact := float64(enumRect(t, b, ext))
		if ex != Exact {
			t.Fatalf("ext %v: exactness %v", ext, ex)
		}
		if model != exact {
			t.Fatalf("ext %v: model %v != exact %v", ext, model, exact)
		}
	}
}

func TestRectFootprintEnumeratedFallback(t *testing.T) {
	// A[i+j]: reduced G is 2×1, not square → enumeration fallback.
	a := analyze(t, `
doall (i, 1, 32)
  doall (j, 1, 32)
    B[i,j] = A[i+j]
  enddoall
enddoall`, nil)
	c := classOf(t, a, "A", 1)
	got, ex := c.RectFootprint([]int64{4, 6})
	if ex != Enumerated {
		t.Fatalf("exactness = %v", ex)
	}
	// i+j over [0,3]×[0,5] takes values 0..8 → 9 distinct.
	if got != 9 {
		t.Fatalf("footprint = %v, want 9", got)
	}
	tr, _ := c.RectTraffic([]int64{4, 6})
	// Single ref: traffic = footprint − single footprint = 0.
	if tr != 0 {
		t.Fatalf("traffic = %v", tr)
	}
}

func TestSpreadCoeffsNonIntegral(t *testing.T) {
	// Construct a class whose â is off-lattice: refs A[2i] and A[2i+2]
	// have â = 2 = 1·(2) (integral); use 3 refs with spread 3 on G=[[2]]:
	// A[2i], A[2i+2], and force â = 2? Simpler: A[2i] and A[2i+4] give
	// â = 4 → u = 2 integral. Use G = [[2,0],[0,2]] with offsets (0,0)
	// and (2,2): â = (2,2) → u = (1,1) integral.
	// Off-lattice â needs >2 refs: offsets (0,0), (2,0), (0,2) on
	// G = [[1,1],[1,-1]]: pairwise diffs (2,0),(0,2),(−2,2) all even-sum
	// → on lattice. â = (2,2) → u: u1+u2=2, u1−u2=2 → u=(2,0) integral.
	// Try offsets (0,0),(1,1),(3,1): diffs (1,1),(2,0),(3,1)... (1,1) on
	// lattice (u=(1,0)); (2,0) u=(1,1); (3,1) u=(2,1). â=(3,1): u1+u2=3,
	// u1−u2=1 → u=(2,1) integral. For this G any lattice vector has even
	// component sum, and â built from member maxes keeps that parity —
	// so integral always holds here. Use a G where it can fail:
	// G=[[2,1],[0,3]]: offsets (0,0),(2,1),(0,3): diffs on lattice.
	// â=(2,3): u·G = (2u1, u1+3u2) = (2,3) → u1=1, u2=2/3: non-integral.
	g := intmat.FromRows([][]int64{{2, 1}, {0, 3}})
	c := mustClass(t, "A", g, []Ref{
		{Array: "A", G: g, A: []int64{0, 0}},
		{Array: "A", G: g, A: []int64{2, 1}},
		{Array: "A", G: g, A: []int64{0, 3}},
	})
	u, integral, ok := coeffs(t, c.SpreadCoeffs)
	if !ok {
		t.Fatal("solve failed")
	}
	if integral {
		t.Fatalf("u = %v should be non-integral", u)
	}
	if u[0] != 1 || math.Abs(u[1]-2.0/3.0) > 1e-12 {
		t.Fatalf("u = %v", u)
	}
	if _, ex := c.RectFootprint([]int64{6, 6}); ex != Approximate {
		t.Fatalf("exactness = %v", ex)
	}
}

func TestTotalFootprintSumsClasses(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	ext := []int64{10, 10}
	total, _ := a.RectTotalFootprint(ext)
	// A class: 100; B class: 140.
	if total != 240 {
		t.Fatalf("total = %v, want 240", total)
	}
}

func TestTileFootprintMatchesRectOnDiagonal(t *testing.T) {
	// For rectangular tiles the Theorem 2 determinant model should agree
	// with Theorem 4 up to the (λ+1 vs λ) boundary convention. Compare
	// on a diagonal tile where both apply.
	a := analyze(t, paperex.Example8, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 3)
	ext := []int64{10, 10, 10}
	rect, _ := b.RectFootprint(ext)
	tf, _ := b.TileFootprint(tile.Rect(ext...))
	if rect != tf {
		t.Fatalf("RectFootprint %v != TileFootprint %v (G=I, same formula expected)", rect, tf)
	}
}

func TestRandomizedModelVsEnumerationUnimodular(t *testing.T) {
	// Property: for random unimodular 2×2 G and random offsets on the
	// lattice, Theorem 4's rect formula is exact.
	rng := rand.New(rand.NewSource(2024))
	unimods := []intmat.Mat{
		intmat.FromRows([][]int64{{1, 0}, {0, 1}}),
		intmat.FromRows([][]int64{{1, 0}, {1, 1}}),
		intmat.FromRows([][]int64{{1, 1}, {0, 1}}),
		intmat.FromRows([][]int64{{2, 1}, {1, 1}}),
		intmat.FromRows([][]int64{{1, -1}, {0, 1}}),
	}
	for trial := 0; trial < 200; trial++ {
		g := unimods[rng.Intn(len(unimods))]
		nRefs := 2 + rng.Intn(3)
		refs := make([]Ref, nRefs)
		for i := range refs {
			u := []int64{int64(rng.Intn(5) - 2), int64(rng.Intn(5) - 2)}
			a := mulVec(t, g, u) // offsets on the lattice → intersecting
			refs[i] = Ref{Array: "A", G: g, A: a}
		}
		c := mustClass(t, "A", g, refs)
		ext := []int64{int64(rng.Intn(6) + 3), int64(rng.Intn(6) + 3)}
		model, ex := c.RectFootprint(ext)
		exact := float64(enumRect(t, c, ext))
		if nRefs == 2 {
			// Two translates: Lemma 3 counts the union exactly.
			if ex != Exact || model != exact {
				t.Fatalf("trial %d: G=%v refs=%v ext=%v: model %v (%v) != exact %v",
					trial, g, refs, ext, model, ex, exact)
			}
			continue
		}
		// ≥3 refs: the spread model is the paper's heuristic; it should
		// stay within a factor of two of the truth at these sizes.
		lin, _ := c.RectFootprintLinearized(ext)
		if lin < exact/2 || lin > exact*2 {
			t.Fatalf("trial %d: G=%v refs=%v ext=%v: linearized %v vs exact %v out of band",
				trial, g, refs, ext, lin, exact)
		}
		_ = model
	}
}

func BenchmarkRectFootprintModel(b *testing.B) {
	n := paperex.MustParse(paperex.Example10, map[string]int64{"N": 100})
	a, err := Analyze(n)
	if err != nil {
		b.Fatal(err)
	}
	ext := []int64{10, 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = a.RectTotalFootprint(ext)
	}
}

func BenchmarkExactEnumeration10x10(b *testing.B) {
	n := paperex.MustParse(paperex.Example10, map[string]int64{"N": 100})
	a, err := Analyze(n)
	if err != nil {
		b.Fatal(err)
	}
	pts := tile.OriginPoints(tile.Rect(10, 10))
	for i := 0; i < b.N; i++ {
		_, _ = a.ExactTotalFootprint(pts)
	}
}

func TestRectFootprintLinesModelVsEnumeration(t *testing.T) {
	// Identity-G stencil: the line model must track line-granular
	// enumeration closely (same linearization error budget as Theorem 4
	// plus line-boundary rounding).
	src := `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = B[i-1,j] + B[i+1,j] + B[i,j-2] + B[i,j+2]
  enddoall
enddoall`
	a := analyze(t, src, nil)
	b := classOf(t, a, "B", 4)
	n := a.Nest
	for _, lineSize := range []int64{1, 2, 4, 8} {
		mm, err := layout.MapNest(n, lineSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range [][]int64{{8, 8}, {4, 16}, {16, 4}} {
			model, ok := b.RectFootprintLinesModel(ext, lineSize)
			if !ok {
				t.Fatal("model refused identity class")
			}
			// Anchor the tile inside the real iteration space so every
			// subscript stays within the mapped arrays.
			pts := tile.OriginPoints(tile.Rect(ext...))
			for _, p := range pts {
				p[0] += 2
				p[1] += 3
			}
			bOnly := &Analysis{Nest: a.Nest, Vars: a.Vars, Classes: []Class{b}}
			exact, err := bOnly.ExactLineFootprint(pts, mm)
			if err != nil {
				t.Fatal(err)
			}
			// Alignment of the tile inside the line grid shifts counts
			// by at most one line per row; allow that plus the usual
			// linearization slack.
			slack := float64(ext[0]) + 4
			if model < float64(exact)-slack || model > float64(exact)+slack {
				t.Fatalf("lineSize=%d ext=%v: model %.1f vs exact %d (slack %.0f)",
					lineSize, ext, model, exact, slack)
			}
		}
	}
}

func TestRectFootprintLinesModelRefusesNonIdentity(t *testing.T) {
	a := analyze(t, paperex.Example10, map[string]int64{"N": 16})
	b := classOf(t, a, "B", 2)
	if _, ok := b.RectFootprintLinesModel([]int64{4, 4}, 4); ok {
		t.Fatal("non-identity class accepted")
	}
}

func TestUnitLineModelMatchesLinearized(t *testing.T) {
	a := analyze(t, paperex.Example8, map[string]int64{"N": 32})
	b := classOf(t, a, "B", 3)
	ext := []int64{8, 8, 8}
	lines, ok := b.RectFootprintLinesModel(ext, 1)
	if !ok {
		t.Fatal("refused")
	}
	lin, _ := b.RectFootprintLinearized(ext)
	if lines != lin {
		t.Fatalf("unit-line model %v != linearized %v", lines, lin)
	}
}

func TestExactTotalAndArrayFootprint(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	pts := tile.OriginPoints(tile.Rect(10, 10))
	// Anchor inside the space (subscripts are unconstrained here; exact
	// enumeration works anywhere).
	totalB := exactArray(t, a, "B", pts)
	totalA := exactArray(t, a, "A", pts)
	if totalA != 100 || totalB != 140 {
		t.Fatalf("A=%d B=%d", totalA, totalB)
	}
	if got := exactTotal(t, a, pts); got != 240 {
		t.Fatalf("total = %d", got)
	}
	if got := exactArray(t, a, "Z", pts); got != 0 {
		t.Fatalf("unknown array footprint = %d", got)
	}
}

func TestCumulativeSpreadCoeffsExample8(t *testing.T) {
	a := analyze(t, paperex.Example8, map[string]int64{"N": 16})
	b := classOf(t, a, "B", 3)
	u, integral, ok := coeffs(t, b.CumulativeSpreadCoeffs)
	if !ok || !integral {
		t.Fatalf("u=%v integral=%v ok=%v", u, integral, ok)
	}
	// Symmetric offsets: a⁺ = â = (2,3,4).
	if u[0] != 2 || u[1] != 3 || u[2] != 4 {
		t.Fatalf("u = %v", u)
	}
}

func TestExactnessString(t *testing.T) {
	for e, want := range map[Exactness]string{
		Exact: "exact", Approximate: "approximate", Enumerated: "enumerated",
	} {
		if e.String() != want {
			t.Errorf("%d.String() = %q", e, e.String())
		}
	}
}

func TestRefAndClassStrings(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	b := classOf(t, a, "B", 2)
	if b.NumRefs() != 2 {
		t.Fatalf("NumRefs = %d", b.NumRefs())
	}
	if b.Refs[0].String() == "" || b.String() == "" {
		t.Fatal("empty strings")
	}
}

func TestNewClassPublicConstructor(t *testing.T) {
	g := intmat.FromRows([][]int64{{1, 2, 1}, {0, 0, 1}})
	c := mustClass(t, "A", g, []Ref{{Array: "A", G: g, A: []int64{0, 0, 0}}})
	if len(c.Reduced.Cols) != 2 {
		t.Fatalf("reduction missing: %v", c.Reduced.Cols)
	}
}

func TestRectTotalLinearizedAggregates(t *testing.T) {
	a := analyze(t, paperex.Example8, map[string]int64{"N": 16})
	ext := []int64{4, 4, 4}
	fp, _ := a.RectTotalFootprintLinearized(ext)
	tr, _ := a.RectTotalTrafficLinearized(ext)
	// A class: 64 footprint, 0 traffic; B: 64 + 2·16+3·16+4·16 = 208.
	if fp != 64+208 {
		t.Fatalf("footprint = %v", fp)
	}
	if tr != 144 {
		t.Fatalf("traffic = %v", tr)
	}
}

func TestTileTotalTrafficSkewed(t *testing.T) {
	a := analyze(t, paperex.Example6, nil)
	lmat := intmat.FromRows([][]int64{{6, 6}, {5, 0}})
	tr, _ := a.TileTotalTraffic(tile.Parallelepiped(lmat))
	if tr <= 0 {
		t.Fatalf("traffic = %v", tr)
	}
	// Enumerated fallback path: a program with A[i+j].
	a2 := analyze(t, `
doall (i, 1, 8)
  doall (j, 1, 8)
    B[i,j] = A[i+j] + A[i+j+2]
  enddoall
enddoall`, nil)
	tr2, ex := a2.TileTotalTraffic(tile.Rect(4, 4))
	if ex != Enumerated {
		t.Fatalf("exactness = %v", ex)
	}
	// A[i+j] and A[i+j+2] on a 4×4 tile: union size 9, single 7 → 2.
	if tr2 != 2 {
		t.Fatalf("traffic = %v", tr2)
	}
}
