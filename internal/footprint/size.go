package footprint

import (
	"fmt"
	"math"
	"sync/atomic"

	"looppart/internal/intmat"
	"looppart/internal/lattice"
	"looppart/internal/tile"
)

// DefaultEnumerationBudget is the default cap on the number of iteration
// points the exact-enumeration fallbacks will stream per footprint query.
// Enumeration walks every point of a tile; without a cap a single
// degenerate candidate (huge extents, no closed form) stalls a search or
// a server request indefinitely. Above the budget the model fallback
// stands in (see rectEnumOrModel / tileEnumOrModel).
const DefaultEnumerationBudget = 1 << 20

var enumBudget atomic.Int64

func init() { enumBudget.Store(DefaultEnumerationBudget) }

// EnumerationBudget returns the current iteration-point budget.
func EnumerationBudget() int64 { return enumBudget.Load() }

// SetEnumerationBudget sets the iteration-point budget for exact
// enumeration fallbacks and returns the previous value. n ≤ 0 removes the
// cap. Safe for concurrent use (searches evaluate candidates on a worker
// pool).
func SetEnumerationBudget(n int64) (prev int64) {
	if n <= 0 {
		n = math.MaxInt64
	}
	return enumBudget.Swap(n)
}

// Exactness qualifies a size prediction.
type Exactness int

const (
	// Exact: the closed form counts lattice points exactly (Theorem 4
	// with an integral spread decomposition).
	Exact Exactness = iota
	// Approximate: the determinant/volume model of Theorem 2, or a
	// rational spread decomposition — correct to lower-order boundary
	// terms (the paper's ≈).
	Approximate
	// Enumerated: no closed form applied; the value came from exact
	// enumeration.
	Enumerated
)

func (e Exactness) String() string {
	switch e {
	case Exact:
		return "exact"
	case Approximate:
		return "approximate"
	default:
		return "enumerated"
	}
}

// SpreadCoeffs solves â' = u·G' for the lattice coordinates of the class
// spread in terms of the reduced reference matrix rows (Theorem 4). The
// returned coefficients are absolute values. ok reports whether G' is
// square and nonsingular; integral reports whether the solution is
// integral (when it is, Theorem 4's count is exact).
func (c Class) SpreadCoeffs() (u []float64, integral bool, ok bool) {
	return c.spreadCoeffs(c.Spread())
}

// CumulativeSpreadCoeffs is SpreadCoeffs with the data-partitioning spread
// a⁺ in place of â (footnote 2).
func (c Class) CumulativeSpreadCoeffs() (u []float64, integral bool, ok bool) {
	return c.spreadCoeffs(c.CumulativeSpread())
}

// solveLeftFloat solves target = u·g over the rationals and returns the
// coefficient magnitudes as floats.
func solveLeftFloat(g intmat.Mat, target []int64) ([]float64, bool) {
	sol, ok := intmat.SolveLeftInt(g, target)
	if !ok {
		return nil, false
	}
	out := make([]float64, len(sol))
	for i, s := range sol {
		out[i] = math.Abs(s.Float())
	}
	return out, true
}

func (c Class) spreadCoeffs(spread []int64) ([]float64, bool, bool) {
	gr := c.Reduced.G
	if gr.Rows() != gr.Cols() || !gr.IsNonsingular() {
		return nil, false, false
	}
	target := c.Reduced.Project(spread)
	sol, solOK := intmat.SolveLeftInt(gr, target)
	if !solOK {
		return nil, false, false
	}
	u := make([]float64, len(sol))
	integral := true
	for i, s := range sol {
		if !s.IsInt() {
			integral = false
		}
		u[i] = math.Abs(s.Float())
	}
	return u, integral, true
}

// PairCoeffs solves (a₂ − a₁)' = u·G' for a two-reference class: the
// lattice coordinates of the actual translation between the two
// footprints (Proposition 1). Unlike the spread â — which takes
// per-component max−min and so loses relative signs — this is the exact
// translation vector, and Lemma 3 counts the union exactly from it.
func (c Class) PairCoeffs() (u []float64, integral bool, ok bool) {
	if len(c.Refs) != 2 {
		return nil, false, false
	}
	diff := make([]int64, len(c.Refs[0].A))
	for k := range diff {
		diff[k] = c.Refs[1].A[k] - c.Refs[0].A[k]
	}
	return c.spreadCoeffs(diff)
}

// RectFootprint predicts the cumulative footprint size of a rectangular
// tile with the given per-dimension extents (number of iterations per
// dimension; the paper's λ+1). It uses the sharpest model available:
//
//   - one reference, square nonsingular G': exactly Π extⱼ (the rows of
//     G' are independent, so the tile maps 1:1 into the data space);
//   - two references with an integral translation decomposition: Lemma 3's
//     exact union size 2·Π extⱼ − Π(extⱼ − |uⱼ|) — this is where the
//     paper's Example 2 numbers (104 and 140) come from;
//   - otherwise, with square nonsingular G': the linearized Theorem 4
//     form (see RectFootprintLinearized), the paper's ≈;
//   - otherwise exact enumeration.
func (c Class) RectFootprint(ext []int64) (float64, Exactness) {
	l := c.G.Rows()
	if len(ext) != l {
		panic(fmt.Sprintf("footprint: %d extents for %d-deep nest", len(ext), l))
	}
	gr := c.Reduced.G
	square := gr.Rows() == gr.Cols() && gr.IsNonsingular()
	if !square {
		return c.rectEnumOrModel(ext)
	}
	base := 1.0
	for _, e := range ext {
		base *= float64(e)
	}
	if len(c.Refs) == 1 {
		return base, Exact
	}
	if len(c.Refs) == 2 {
		if u, integral, ok := c.PairCoeffs(); ok && integral {
			bounds := make([]int64, len(ext))
			ui := make([]int64, len(u))
			for k := range ext {
				bounds[k] = ext[k] - 1
				ui[k] = int64(math.Round(u[k]))
			}
			return float64(lattice.UnionSizeModel(bounds, ui)), Exact
		}
	}
	v, ex := c.RectFootprintLinearized(ext)
	return v, ex
}

// RectFootprintLinearized is the paper's Theorem 4 expression:
//
//	Π extⱼ + Σᵢ |uᵢ|·Π_{j≠i} extⱼ
//
// with â = Σ uᵢ·gᵢ' solved over the rationals. This is the form the
// optimizer's closed-form aspect ratios come from (Examples 8–10). It is
// approximate: it drops Lemma 3's cross terms and relies on the spread
// heuristic for classes of three or more references.
func (c Class) RectFootprintLinearized(ext []int64) (float64, Exactness) {
	u, _, ok := c.SpreadCoeffs()
	if !ok {
		return c.rectEnumOrModel(ext)
	}
	base := 1.0
	for _, e := range ext {
		base *= float64(e)
	}
	total := base
	for i, ui := range u {
		term := ui
		for j, e := range ext {
			if j == i {
				continue
			}
			term *= float64(e)
		}
		total += term
	}
	return total, Approximate
}

// RectTraffic predicts the per-tile communication volume of a rectangular
// tile: the cumulative footprint minus the single-reference footprint
// (the Σᵢ |uᵢ|·Π_{j≠i} extⱼ terms). Under an outer sequential loop this is
// the steady-state coherence traffic per epoch (Figure 9 discussion); the
// volume term drops because it is fixed by load balance.
func (c Class) RectTraffic(ext []int64) (float64, Exactness) {
	fp, ex := c.RectFootprint(ext)
	if ex == Enumerated {
		// Subtract the enumerated single-reference footprint.
		single := c.enumerateRectSingle(ext)
		return fp - float64(single), Enumerated
	}
	base := 1.0
	for _, e := range ext {
		base *= float64(e)
	}
	return fp - base, ex
}

// RectTrafficLinearized is the paper's Theorem 4 traffic expression: the
// Σᵢ |uᵢ|·Π_{j≠i} extⱼ terms alone (Example 8's 2LjLk + 3LiLk + 4LiLj).
func (c Class) RectTrafficLinearized(ext []int64) (float64, Exactness) {
	fp, ex := c.RectFootprintLinearized(ext)
	if ex == Enumerated {
		single := c.enumerateRectSingle(ext)
		return fp - float64(single), Enumerated
	}
	base := 1.0
	for _, e := range ext {
		base *= float64(e)
	}
	return fp - base, ex
}

// TileFootprint predicts the cumulative footprint for a general
// hyperparallelepiped tile via Theorem 2:
//
//	|det LG'| + Σᵢ |det (LG')_{i→â'}|
//
// where G' is the reduced reference matrix and â' the projected spread.
// The model requires G' square; otherwise the footprint is enumerated.
// For rectangular tiles RectFootprint gives sharper (λ+1) counts.
func (c Class) TileFootprint(t tile.Tile) (float64, Exactness) {
	gr := c.Reduced.G
	if gr.Rows() != gr.Cols() || !gr.IsNonsingular() {
		return c.tileEnumOrModel(t)
	}
	spread := c.Reduced.Project(c.Spread())
	return tileModelFootprint(t, gr, spread)
}

// tileModelFootprint evaluates Theorem 2's |det LG'| + Σᵢ |det (LG')_{i→â'}|
// with overflow-checked arithmetic. A candidate whose determinants are not
// representable scores +Inf — strictly worse than every representable
// candidate — so a search can never rank tiles by a wrapped determinant.
// Both Class.TileFootprint and the Evaluator mirror call this, keeping the
// two paths bit-identical.
func tileModelFootprint(t tile.Tile, gr intmat.Mat, spread []int64) (float64, Exactness) {
	lg, err := t.L.MulChecked(gr)
	if err != nil {
		return math.Inf(1), Approximate
	}
	d, err := lg.DetChecked()
	if err != nil {
		return math.Inf(1), Approximate
	}
	total := math.Abs(float64(d))
	for i := 0; i < lg.Rows(); i++ {
		rd, err := lg.WithRow(i, spread).DetChecked()
		if err != nil {
			return math.Inf(1), Approximate
		}
		total += math.Abs(float64(rd))
	}
	return total, Approximate
}

// rectEnumOrModel is the fallback for rectangular tiles with no applicable
// closed form. Tiles within the enumeration budget stream their points
// through the exact Definition 3 count; larger tiles use the refs·volume
// upper bound (each iteration point touches at most len(Refs) elements),
// reported as Approximate so callers know no exact count backs it.
func (c Class) rectEnumOrModel(ext []int64) (float64, Exactness) {
	if v := rectVolume(ext); v > enumBudget.Load() {
		return float64(len(c.Refs)) * float64(v), Approximate
	}
	return float64(c.enumerateRect(ext)), Enumerated
}

// tileEnumOrModel is the fallback for hyperparallelepiped tiles. The
// budget gates on the volume of the box bounding the tile's vertices, not
// on the |det L| points enumerateTile visits: the gate decides whether a
// candidate is scored Enumerated or Approximate, and plans depend on that.
// Above it the refs·|det L| upper bound stands in, as it does for a tile
// whose points do not fit in int64, and a tile whose volume is not even
// representable scores +Inf.
func (c Class) tileEnumOrModel(t tile.Tile) (float64, Exactness) {
	box := int64(1)
	d := t.Dim()
	for j := 0; j < d; j++ {
		var lo, hi int64
		for i := 0; i < d; i++ {
			if v := t.L.At(i, j); v < 0 {
				lo = intmat.SatAdd(lo, v)
			} else {
				hi = intmat.SatAdd(hi, v)
			}
		}
		span := intmat.SatAdd(intmat.SatAdd(hi, intmat.SatMul(lo, -1)), 1)
		box = intmat.SatMul(box, span)
	}
	if box <= enumBudget.Load() {
		if n, ok := c.enumerateTile(t); ok {
			return float64(n), Enumerated
		}
	}
	vol, err := t.L.DetChecked()
	if err != nil {
		return math.Inf(1), Approximate
	}
	return float64(len(c.Refs)) * math.Abs(float64(vol)), Approximate
}

// rectVolume returns Π extⱼ, saturating at MaxInt64.
func rectVolume(ext []int64) int64 {
	v := int64(1)
	for _, e := range ext {
		v = intmat.SatMul(v, e)
	}
	return v
}

// enumerateRect computes the exact cumulative footprint of the rectangular
// origin tile with the given extents, streaming the points.
func (c Class) enumerateRect(ext []int64) int64 {
	n, _ := c.enumerateTile(tile.Rect(ext...)) // a rectangle's points always fit
	return n
}

// enumerateRectSingle computes the exact footprint of the first reference
// alone.
func (c Class) enumerateRectSingle(ext []int64) int64 {
	single := Class{Array: c.Array, G: c.G, Refs: c.Refs[:1], Reduced: c.Reduced}
	return single.enumerateRect(ext)
}

// enumerateTile computes the exact cumulative footprint of the tile at the
// origin, streaming its |det L| points. ok is false when the walk cannot
// represent the tile's lattice or points in int64.
func (c Class) enumerateTile(t tile.Tile) (n int64, ok bool) {
	var err error
	n = ExactClassFootprintFunc(c, func(yield func(p []int64) bool) {
		err = t.ForEachPoint(yield)
	})
	return n, err == nil
}

// SingleFootprintVolume returns |det LG'| for one reference (Equation 2) —
// the leading term of the footprint size — or ok=false when the reduced G
// is not square or the determinant is not representable in int64.
func (c Class) SingleFootprintVolume(t tile.Tile) (int64, bool) {
	gr := c.Reduced.G
	if gr.Rows() != gr.Cols() {
		return 0, false
	}
	lg, err := t.L.MulChecked(gr)
	if err != nil {
		return 0, false
	}
	d, err := lg.DetChecked()
	if err != nil || d == math.MinInt64 {
		return 0, false
	}
	if d < 0 {
		d = -d
	}
	return d, true
}

// FootprintInvariant reports whether the class's footprint size is
// independent of the tile shape given fixed tile volume — true when the
// class has a single reference and its reduced G is square nonsingular
// (|det LG'| = |det L|·|det G'|, Example 8's "A need not figure in the
// optimization"). Such classes are excluded from shape optimization.
func (c Class) FootprintInvariant() bool {
	gr := c.Reduced.G
	return len(c.Refs) == 1 && gr.Rows() == gr.Cols() && gr.IsNonsingular()
}

// RectTotalFootprint sums RectFootprint over all classes of the analysis;
// the exactness is the weakest among the classes.
func (a *Analysis) RectTotalFootprint(ext []int64) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for _, c := range a.Classes {
		v, ex := c.RectFootprint(ext)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// RectTotalTraffic sums RectTraffic over all classes.
func (a *Analysis) RectTotalTraffic(ext []int64) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for _, c := range a.Classes {
		v, ex := c.RectTraffic(ext)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// RectTotalFootprintLinearized sums the paper's Theorem 4 expression over
// all classes.
func (a *Analysis) RectTotalFootprintLinearized(ext []int64) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for _, c := range a.Classes {
		v, ex := c.RectFootprintLinearized(ext)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// RectTotalTrafficLinearized sums the paper's traffic terms over all
// classes — the objective whose Lagrange conditions give the paper's
// closed-form aspect ratios.
func (a *Analysis) RectTotalTrafficLinearized(ext []int64) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for _, c := range a.Classes {
		v, ex := c.RectTrafficLinearized(ext)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// TileTotalFootprint sums TileFootprint over all classes.
func (a *Analysis) TileTotalFootprint(t tile.Tile) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for _, c := range a.Classes {
		v, ex := c.TileFootprint(t)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// TileTotalTraffic sums the Theorem 2 spread terms over all classes: the
// cumulative footprint minus the volume term |det LG'| per class.
func (a *Analysis) TileTotalTraffic(t tile.Tile) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for _, c := range a.Classes {
		fp, ex := c.TileFootprint(t)
		if math.IsInf(fp, 1) {
			// Unrepresentable determinants: the traffic is as unrankable
			// as the footprint; keep the +Inf sentinel.
			total += fp
		} else if vol, ok := c.SingleFootprintVolume(t); ok && ex != Enumerated {
			total += fp - float64(vol)
		} else {
			single := Class{Array: c.Array, G: c.G, Refs: c.Refs[:1], Reduced: c.Reduced}
			sfp, sex := single.tileEnumOrModel(t)
			total += fp - sfp
			if sex > ex {
				ex = sex
			}
		}
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}
