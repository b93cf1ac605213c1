package footprint

import (
	"math"
	"strings"
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/tile"
)

// Regression: writeInt used v = -v to take the magnitude, which wraps for
// MinInt64 (it is its own negation), aliasing the dedup key of -2^63 with
// "-0"-prefixed garbage. The keys of extreme values must stay distinct.
func TestWriteIntMinInt64(t *testing.T) {
	key := func(v int64) string {
		var b strings.Builder
		writeInt(&b, v)
		return b.String()
	}
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64}
	seen := make(map[string]int64)
	for _, v := range vals {
		k := key(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("writeInt key collision: %d and %d both encode to %q", prev, v, k)
		}
		seen[k] = v
	}
	if got, want := key(math.MinInt64), "-8446744073709551258,"; len(got) != len(want) {
		// Not asserting the exact digit string (LSD-first encoding), just
		// that the magnitude has the full 19 digits plus sign and comma.
		t.Errorf("writeInt(MinInt64) = %q: want 19 digits, sign, delimiter", got)
	}
}

// A class whose G maps iterations near MinInt64 must count corners
// distinctly: with the old wrapping writeInt the two extreme columns
// collapsed into one key.
func TestExactFootprintExtremeOffsets(t *testing.T) {
	g := intmat.FromRows([][]int64{{1}})
	c := mustClass(t, "A", g, []Ref{
		{A: []int64{math.MinInt64}},
		{A: []int64{math.MinInt64 + 1}},
	})
	got := exactClass(t, c, [][]int64{{0}, {1}})
	// Points {Min, Min+1} ∪ {Min+1, Min+2} = 3 distinct elements.
	if got != 3 {
		t.Errorf("ExactClassFootprint near MinInt64 = %d, want 3", got)
	}
}

// The enumeration fallbacks must respect the configurable point budget:
// below it they enumerate exactly, above it the refs·volume model stands
// in (Approximate), and the search never materializes the cross-product.
func TestEnumerationBudgetRect(t *testing.T) {
	// Rank-deficient reduced G (1 row, 2 cols → not square after reduction
	// keeps 2 cols? build directly): use a 2-deep nest mapping to 1-D data
	// with dependent columns so no closed form applies.
	g := intmat.FromRows([][]int64{{1, 2}, {2, 4}})
	c := mustClass(t, "A", g, []Ref{{A: []int64{0, 0}}, {A: []int64{1, 1}}})
	ext := []int64{8, 8}

	prev := SetEnumerationBudget(1 << 30)
	defer SetEnumerationBudget(prev)

	fp, ex := c.RectFootprint(ext)
	if ex != Enumerated {
		t.Fatalf("in-budget RectFootprint exactness = %v, want Enumerated", ex)
	}

	SetEnumerationBudget(16) // 8×8 = 64 points > 16
	fpModel, exModel := c.RectFootprint(ext)
	if exModel != Approximate {
		t.Fatalf("over-budget RectFootprint exactness = %v, want Approximate", exModel)
	}
	if want := float64(len(c.Refs)) * 64; fpModel != want {
		t.Errorf("over-budget RectFootprint = %v, want refs·vol = %v", fpModel, want)
	}
	if fpModel < fp {
		t.Errorf("model fallback %v is below the exact count %v: not an upper bound", fpModel, fp)
	}

	// The evaluator mirror must agree bit-for-bit in both regimes.
	a := &Analysis{Classes: []Class{c}}
	ev := NewEvaluator(a)
	gotEv, exEv := ev.RectTotalFootprint(ext)
	if gotEv != fpModel || exEv != exModel {
		t.Errorf("Evaluator over budget = (%v, %v), Analysis = (%v, %v)", gotEv, exEv, fpModel, exModel)
	}
	SetEnumerationBudget(1 << 30)
	gotEv, exEv = ev.RectTotalFootprint(ext)
	if gotEv != fp || exEv != Enumerated {
		t.Errorf("Evaluator in budget = (%v, %v), Analysis = (%v, %v)", gotEv, exEv, fp, Enumerated)
	}
}

func TestEnumerationBudgetTile(t *testing.T) {
	g := intmat.FromRows([][]int64{{1, 2}, {2, 4}})
	c := mustClass(t, "A", g, []Ref{{A: []int64{0, 0}}})
	tl := tile.Rect(6, 6)

	prev := SetEnumerationBudget(1 << 30)
	defer SetEnumerationBudget(prev)
	exact, ex := c.TileFootprint(tl)
	if ex != Enumerated {
		t.Fatalf("in-budget TileFootprint exactness = %v, want Enumerated", ex)
	}

	SetEnumerationBudget(8)
	fp, ex2 := c.TileFootprint(tl)
	if ex2 != Approximate {
		t.Fatalf("over-budget TileFootprint exactness = %v, want Approximate", ex2)
	}
	if want := float64(len(c.Refs)) * 36; fp != want {
		t.Errorf("over-budget TileFootprint = %v, want refs·|det L| = %v", fp, want)
	}
	if fp < exact {
		t.Errorf("model fallback %v below exact count %v", fp, exact)
	}
}

// An overflowing tile model must score +Inf, never a wrapped (possibly
// small or negative) determinant.
func TestTileFootprintOverflowInf(t *testing.T) {
	g := intmat.FromRows([][]int64{{1, 0}, {0, 1}})
	c := mustClass(t, "A", g, []Ref{{A: []int64{0, 0}}, {A: []int64{1, 0}}})
	huge := tile.Tile{L: intmat.Diag(int64(1)<<40, int64(1)<<40)}
	fp, ex := c.TileFootprint(huge)
	if !math.IsInf(fp, 1) {
		t.Fatalf("TileFootprint with wrapping det = %v, want +Inf", fp)
	}
	if ex != Approximate {
		t.Errorf("exactness = %v, want Approximate", ex)
	}
	// And it must rank worse than any sane candidate in a comparison.
	sane, _ := c.TileFootprint(tile.Rect(4, 4))
	if !(fp > sane) {
		t.Errorf("overflowed footprint %v does not compare worse than %v", fp, sane)
	}
}
