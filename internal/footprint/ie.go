package footprint

import (
	"math"
)

// Inclusion–exclusion refinement of the cumulative footprint for classes
// with three or more references. The paper's Theorem 4 replaces the union
// of k translated footprints with the two-extreme-corner spread model; for
// reference sets that spread in several directions this can drift. Lemma 3
// gives every PAIRWISE intersection exactly:
//
//	|F_r ∩ F_s| = Π_j max(0, extⱼ − |u^{rs}_j|)
//
// with (a_s − a_r)' = u^{rs}·G'. Truncating inclusion–exclusion at the
// pairwise terms brackets the union:
//
//	k·Πext − Σ_{r<s}|F_r ∩ F_s|  ≤  |∪F|  ≤  k·Πext − max chain overlap
//
// The lower bound (Bonferroni) is tight when at most two footprints meet
// anywhere; the upper bound subtracts only a spanning set of overlaps
// (consecutive references along the dominant direction), which never
// over-subtracts.

// RectFootprintBounds returns pairwise inclusion–exclusion bounds on the
// cumulative footprint of a rectangular tile. ok is false when the
// reduced G is not square nonsingular (no closed pairwise form). A pair
// whose translation decomposition overflows int64 makes both bounds +Inf,
// as every model in this package scores an unrepresentable footprint.
func (c Class) RectFootprintBounds(ext []int64) (lower, upper float64, ok bool) {
	gr := c.Reduced.G
	if gr.Rows() != gr.Cols() || !gr.IsNonsingular() {
		return 0, 0, false
	}
	k := len(c.Refs)
	base := 1.0
	for _, e := range ext {
		base *= float64(e)
	}
	if k == 1 {
		return base, base, true
	}
	overflow := false
	pairOverlap := func(r, s int) float64 {
		diff := make([]int64, len(c.Refs[r].A))
		for d := range diff {
			diff[d] = c.Refs[s].A[d] - c.Refs[r].A[d]
		}
		sol, _, solOK, err := solveLeftFloat(c.Reduced.G, c.Reduced.Project(diff))
		overflow = overflow || err != nil
		if !solOK {
			return 0
		}
		ov := 1.0
		for j, e := range ext {
			rem := float64(e) - math.Abs(sol[j])
			if rem <= 0 {
				return 0
			}
			ov *= rem
		}
		return ov
	}

	sumAll := float64(k) * base

	// Lower bound: subtract every pairwise overlap (Bonferroni).
	lower = sumAll
	for r := 0; r < k; r++ {
		for s := r + 1; s < k; s++ {
			lower -= pairOverlap(r, s)
		}
	}
	if lower < base {
		lower = base // the union contains each footprint
	}

	// Upper bound: subtract a spanning chain of overlaps. Order the
	// references along their dominant lattice direction and subtract
	// consecutive overlaps only; a union never exceeds this since each
	// consecutive pair genuinely shares that much.
	order := c.chainOrder()
	upper = sumAll
	for i := 0; i+1 < len(order); i++ {
		upper -= pairOverlap(order[i], order[i+1])
	}
	if upper < lower {
		upper = lower
	}
	if overflow {
		return math.Inf(1), math.Inf(1), true
	}
	return lower, upper, true
}

// chainOrder sorts reference indices by the projection of their offsets
// onto the dominant spread direction, giving a 1-D chain whose consecutive
// overlaps are large.
func (c Class) chainOrder() []int {
	spread := c.Spread()
	// Dominant direction: the spread vector itself (data space).
	idx := make([]int, len(c.Refs))
	key := make([]float64, len(c.Refs))
	for i := range c.Refs {
		dot := 0.0
		for d, s := range spread {
			dot += float64(s) * float64(c.Refs[i].A[d])
		}
		idx[i] = i
		key[i] = dot
	}
	// Insertion sort (k is tiny).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && key[idx[j]] < key[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// RectFootprintRefined returns the midpoint of the inclusion–exclusion
// bounds — a sharper point estimate than the linearized Theorem 4 form
// for multi-reference classes — falling back to RectFootprint when no
// closed pairwise form exists.
func (c Class) RectFootprintRefined(ext []int64) (float64, Exactness) {
	lo, hi, ok := c.RectFootprintBounds(ext)
	if !ok {
		return c.RectFootprint(ext)
	}
	if math.IsInf(lo, 1) {
		return lo, Approximate
	}
	if lo == hi {
		return lo, Exact
	}
	return (lo + hi) / 2, Approximate
}
