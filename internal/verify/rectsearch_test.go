package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/partition"
	"looppart/internal/tile"
)

// TestRectSearchMatchesExhaustiveMinimum checks the rect search against an
// oracle that shares none of its machinery: every processor grid of P
// that fits the iteration space, found by recursive enumeration and scored
// by the unaccelerated Analysis.RectTotalFootprint. OptimizeRect's
// footprint must equal the oracle's minimum and the model's value at the
// plan's own extents. The corpus must reach both the inline scan (every
// class in closed form) and the pooled one.
func TestRectSearchMatchesExhaustiveMinimum(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	const want = 120
	checked, rejected, inline := 0, 0, 0
	for i := 0; checked < want && i < 6*want; i++ {
		src := RandomNest(rnd, GenConfig{})
		procs := []int{4, 8, 16}[i%3]
		a, err := analyzeSource(src)
		if err != nil {
			rejected++ // degenerate nest: not a search input
			continue
		}
		oracle, feasible := exhaustiveRectMin(a, int64(procs))
		plan, err := partition.OptimizeRect(context.Background(), a, procs)
		if err != nil {
			if feasible {
				t.Fatalf("nest %d (procs=%d): search failed where a grid fits:\n%s\n%v", i, procs, src, err)
			}
			rejected++
			continue
		}
		if !feasible {
			t.Fatalf("nest %d (procs=%d): search planned %v where no grid fits:\n%s", i, procs, plan, src)
		}
		if plan.PredictedFootprint != oracle {
			t.Errorf("nest %d (procs=%d): search footprint %v, exhaustive minimum %v:\n%s", i, procs, plan.PredictedFootprint, oracle, src)
		}
		if fp, _ := a.RectTotalFootprint(plan.Ext); fp != plan.PredictedFootprint {
			t.Errorf("nest %d (procs=%d): plan %v carries footprint %v, the model gives %v at its extents:\n%s", i, procs, plan, plan.PredictedFootprint, fp, src)
		}
		checked++
		if footprint.NewEvaluator(a).RectClosedForm() {
			inline++
		}
	}
	if checked < want {
		t.Fatalf("only %d nests checked (want ≥ %d); %d rejected", checked, want, rejected)
	}
	if inline == 0 || inline == checked {
		t.Errorf("scan coverage skew: %d/%d nests scanned inline — the corpus must reach both the inline and the pooled scan", inline, checked)
	}
	t.Logf("checked %d nests: %d scanned inline, %d on the pool, %d rejected", checked, inline, checked-inline, rejected)
}

// exhaustiveRectMin is the least Analysis.RectTotalFootprint over every
// ordered factorization of procs into per-dimension cuts that fits a's
// iteration space; feasible is false when none fits.
func exhaustiveRectMin(a *footprint.Analysis, procs int64) (best float64, feasible bool) {
	sizes := tile.BoundsOf(a.Nest).Extents()
	ext := make([]int64, len(sizes))
	best = math.Inf(1)
	var walk func(k int, rest int64)
	walk = func(k int, rest int64) {
		if k == len(sizes) {
			if rest == 1 {
				fp, _ := a.RectTotalFootprint(ext)
				best = math.Min(best, fp)
				feasible = true
			}
			return
		}
		for g := int64(1); g <= rest && g <= sizes[k]; g++ {
			if rest%g == 0 {
				ext[k] = (sizes[k] + g - 1) / g
				walk(k+1, rest/g)
			}
		}
	}
	walk(0, procs)
	return best, feasible
}
