package footprint

import (
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/loopir"
	"looppart/internal/paperex"
)

func analyze(t *testing.T, src string, params map[string]int64) *Analysis {
	t.Helper()
	n, err := loopir.Parse(src, params)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func classOf(t *testing.T, a *Analysis, array string, nRefs int) Class {
	t.Helper()
	for _, c := range a.Classes {
		if c.Array == array && len(c.Refs) == nRefs {
			return c
		}
	}
	t.Fatalf("no class for %s with %d refs; classes: %v", array, nRefs, a.Classes)
	return Class{}
}

func TestAnalyzeExample2(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	if len(a.Classes) != 2 {
		t.Fatalf("classes = %d: %v", len(a.Classes), a.Classes)
	}
	b := classOf(t, a, "B", 2)
	wantG := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	if !b.G.Equal(wantG) {
		t.Fatalf("G = %v", b.G)
	}
	spread := b.Spread()
	if spread[0] != 4 || spread[1] != 4 {
		t.Fatalf("spread = %v", spread)
	}
	if !b.HasWrite() == true && b.HasWrite() {
		t.Fatal("B is read-only")
	}
	aCls := classOf(t, a, "A", 1)
	if !aCls.HasWrite() {
		t.Fatal("A is written")
	}
	if !aCls.FootprintInvariant() {
		t.Fatal("A's footprint should be shape-invariant")
	}
	if b.FootprintInvariant() {
		t.Fatal("B's footprint depends on shape")
	}
}

func TestAnalyzeExample8Spread(t *testing.T) {
	a := analyze(t, paperex.Example8, map[string]int64{"N": 100})
	b := classOf(t, a, "B", 3)
	if !b.G.Equal(intmat.Identity(3)) {
		t.Fatalf("G = %v", b.G)
	}
	s := b.Spread()
	if s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("spread = %v, want [2 3 4]", s)
	}
}

func TestAnalyzeExample10Classes(t *testing.T) {
	a := analyze(t, paperex.Example10, map[string]int64{"N": 100})
	// Four classes: B (2 refs), C (2 refs: the intersecting pair),
	// C (1 ref: the non-intersecting one), A (1 ref).
	if len(a.Classes) != 4 {
		t.Fatalf("classes = %d: %v", len(a.Classes), a.Classes)
	}
	b := classOf(t, a, "B", 2)
	if det(t, b.G) != -2 {
		t.Fatalf("det G = %d", det(t, b.G))
	}
	s := b.Spread()
	if s[0] != 4 || s[1] != 2 {
		t.Fatalf("B spread = %v", s)
	}
	c2 := classOf(t, a, "C", 2)
	// C(i,2i,i+2j-1) and C(i,2i,i+2j+1): spread (0,0,2).
	cs := c2.Spread()
	if cs[0] != 0 || cs[1] != 0 || cs[2] != 2 {
		t.Fatalf("C spread = %v", cs)
	}
	// Reduced columns of C's G = [[1,2,1],[0,0,2]] are 0 and 2.
	if len(c2.Reduced.Cols) != 2 || c2.Reduced.Cols[0] != 0 || c2.Reduced.Cols[1] != 2 {
		t.Fatalf("C reduced cols = %v", c2.Reduced.Cols)
	}
	// The lone C reference does not merge with the pair.
	_ = classOf(t, a, "C", 1)
}

func TestIntersectingDefinition4(t *testing.T) {
	// A[2i] vs A[2i+1]: uniformly generated, not intersecting.
	g := intmat.FromRows([][]int64{{2}})
	if intersecting(t, g, []int64{0}, []int64{1}) {
		t.Error("A[2i] and A[2i+1] must not intersect")
	}
	if !intersecting(t, g, []int64{0}, []int64{6}) {
		t.Error("A[2i] and A[2i+6] must intersect")
	}
	// Example 10 class C: offset diff (1,2,2) not on the lattice of
	// G = [[1,2,1],[0,0,2]] (needs u2 = 1/2).
	gc := intmat.FromRows([][]int64{{1, 2, 1}, {0, 0, 2}})
	if intersecting(t, gc, []int64{0, 0, -1}, []int64{1, 2, 1}) {
		t.Error("C(i+1,2i+2,i+2j+1) must not intersect C(i,2i,i+2j-1)")
	}
	if !intersecting(t, gc, []int64{0, 0, -1}, []int64{0, 0, 1}) {
		t.Error("C(i,2i,i+2j+1) must intersect C(i,2i,i+2j-1)")
	}
}

func TestUniformlyIntersectingAppendixB(t *testing.T) {
	// Appendix B set 1: A[i,j], A[i+1,j-3], A[i,j+4] — all uniformly
	// intersecting (G = I).
	gI := intmat.Identity(2)
	refs := []Ref{
		{Array: "A", G: gI, A: []int64{0, 0}},
		{Array: "A", G: gI, A: []int64{1, -3}},
		{Array: "A", G: gI, A: []int64{0, 4}},
	}
	for i := range refs {
		for j := range refs {
			if !uniformlyIntersecting(t, refs[i], refs[j]) {
				t.Errorf("refs %d and %d should be uniformly intersecting", i, j)
			}
		}
	}
	// Appendix B negatives.
	g2i := intmat.FromRows([][]int64{{2, 0}, {0, 1}})
	r1 := Ref{Array: "A", G: gI, A: []int64{0, 0}}
	r2 := Ref{Array: "A", G: g2i, A: []int64{0, 0}}
	if uniformlyIntersecting(t, r1, r2) {
		t.Error("A[i,j] and A[2i,j] are not uniformly generated")
	}
	// Different arrays.
	r3 := Ref{Array: "B", G: gI, A: []int64{0, 0}}
	if UniformlyGenerated(r1, r3) {
		t.Error("A[i,j] and B[i,j] must not be uniformly generated")
	}
}

func TestAnalyzeMergesDuplicateOccurrences(t *testing.T) {
	a := analyze(t, `
doall (i, 1, 8)
  A[i] = B[i] + B[i] + B[i+1]
enddoall`, nil)
	b := classOf(t, a, "B", 2)
	// B[i] appears twice as a read → merged with Reads = 2.
	var bi Ref
	for _, r := range b.Refs {
		if r.A[0] == 0 {
			bi = r
		}
	}
	if bi.Reads != 2 || bi.Writes != 0 {
		t.Fatalf("B[i] counts = %+v", bi)
	}
}

func TestAnalyzeReadWriteSameRef(t *testing.T) {
	a := analyze(t, `
doall (i, 1, 8)
  A[i] = A[i] + 1
enddoall`, nil)
	c := classOf(t, a, "A", 1)
	if c.Refs[0].Reads != 1 || c.Refs[0].Writes != 1 {
		t.Fatalf("counts = %+v", c.Refs[0])
	}
}

func TestAnalyzeAtomicFlag(t *testing.T) {
	a := analyze(t, paperex.MatmulSync, map[string]int64{"N": 4})
	c := classOf(t, a, "C", 1)
	if !c.Refs[0].Atomic {
		t.Fatal("C reference should be atomic")
	}
	if c.Refs[0].Reads == 0 || c.Refs[0].Writes == 0 {
		t.Fatalf("atomic accumulate should read and write: %+v", c.Refs[0])
	}
}

func TestAnalyzeRejectsSeqVarInSubscript(t *testing.T) {
	n := loopir.MustParse(`
doseq (t, 1, 4)
  doall (i, 1, 8)
    A[i,t] = B[i]
  enddoall
enddoseq`, nil)
	if _, err := Analyze(n); err == nil {
		t.Fatal("sequential variable in subscript should be rejected")
	}
}

func TestAnalyzeZeroColumnDropping(t *testing.T) {
	// Example 1's reference A[i3+2, 5, i2-1, 4]: columns 1 and 3 zero.
	a := analyze(t, paperex.Example1Ref, map[string]int64{"N": 4})
	c := classOf(t, a, "A", 1)
	if len(c.Reduced.Cols) != 2 {
		t.Fatalf("reduced cols = %v", c.Reduced.Cols)
	}
	if c.Reduced.Cols[0] != 0 || c.Reduced.Cols[1] != 2 {
		t.Fatalf("reduced cols = %v, want [0 2]", c.Reduced.Cols)
	}
}

func TestAnalyzeExample7Reduction(t *testing.T) {
	a := analyze(t, paperex.Example7Ref, map[string]int64{"N": 4})
	c := classOf(t, a, "A", 1)
	want := intmat.FromRows([][]int64{{1, 1}, {0, 1}})
	if !c.Reduced.G.Equal(want) {
		t.Fatalf("G' = %v, want %v", c.Reduced.G, want)
	}
	if !c.Reduced.G.IsUnimodular() {
		t.Fatal("Example 7 G' should be unimodular")
	}
}

func TestCumulativeSpread(t *testing.T) {
	// Offsets 0, 1, 5 in one dimension: median 1, a⁺ = |0−1|+|1−1|+|5−1| = 5.
	// Spread â = 5 − 0 = 5 (equal here); with offsets 0, 1, 2: â = 2, a⁺ = 2.
	gI := intmat.Identity(1)
	c := mustClass(t, "A", gI, []Ref{
		{Array: "A", G: gI, A: []int64{0}},
		{Array: "A", G: gI, A: []int64{1}},
		{Array: "A", G: gI, A: []int64{5}},
	})
	if got := c.CumulativeSpread()[0]; got != 5 {
		t.Errorf("a+ = %d, want 5", got)
	}
	c2 := mustClass(t, "A", gI, []Ref{
		{Array: "A", G: gI, A: []int64{0}},
		{Array: "A", G: gI, A: []int64{1}},
		{Array: "A", G: gI, A: []int64{2}},
	})
	if got := c2.CumulativeSpread()[0]; got != 2 {
		t.Errorf("a+ = %d, want 2", got)
	}
	// Four refs: 0,1,2,7 → median (index 2) = 2, a⁺ = 2+1+0+5 = 8 > â = 7.
	c3 := mustClass(t, "A", gI, []Ref{
		{Array: "A", G: gI, A: []int64{0}},
		{Array: "A", G: gI, A: []int64{1}},
		{Array: "A", G: gI, A: []int64{2}},
		{Array: "A", G: gI, A: []int64{7}},
	})
	if got := c3.CumulativeSpread()[0]; got != 8 {
		t.Errorf("a+ = %d, want 8", got)
	}
	if got := c3.Spread()[0]; got != 7 {
		t.Errorf("â = %d, want 7", got)
	}
}

func TestClassString(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	b := classOf(t, a, "B", 2)
	s := b.String()
	if s == "" {
		t.Fatal("empty class string")
	}
}

func BenchmarkAnalyzeExample10(b *testing.B) {
	n := loopir.MustParse(paperex.Example10, map[string]int64{"N": 100})
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(n); err != nil {
			b.Fatal(err)
		}
	}
}
