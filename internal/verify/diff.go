package verify

import (
	"fmt"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/lattice"
	"looppart/internal/loopir"
	"looppart/internal/tile"
)

// Differential harness: parse → analyze → predict → enumerate → compare.

// DiffResult summarizes one nest's model-vs-enumeration comparison.
type DiffResult struct {
	Classes int // classes compared
	Exact   int // predictions with no tolerance (Exact / Enumerated)
	Approx  int // predictions compared under the relative tolerance
}

// DiffAnalysis checks every class of an analysis against exact enumeration
// on the nest's own iteration space (assumed small enough to enumerate):
//
//   - RectFootprint for the full-space extents and for a shrunken tile,
//     with the Exact/Approximate disagreement rules of compareModelExact;
//   - for two-reference classes, Theorem 3's intersection test against a
//     brute-force coefficient walk.
//
// It returns the comparison counts and the first disagreement found.
func DiffAnalysis(a *footprint.Analysis, tol float64) (DiffResult, error) {
	var res DiffResult
	space := tile.BoundsOf(a.Nest)
	if space.Dim() == 0 {
		return res, nil
	}
	full := space.Extents()
	// A shrunken tile exercises partial-tile geometry, where boundary
	// terms are proportionally largest.
	half := make([]int64, len(full))
	for k, e := range full {
		half[k] = (e + 1) / 2
	}
	for _, c := range a.Classes {
		for _, ext := range [][]int64{full, half} {
			approx, err := DiffClassRect(c, ext, tol)
			if err != nil {
				return res, fmt.Errorf("class %v ext %v: %w", c, ext, err)
			}
			if approx {
				res.Approx++
			} else {
				res.Exact++
			}
		}
		if err := diffTheorem3(c, full); err != nil {
			return res, err
		}
		res.Classes++
	}
	return res, nil
}

// DiffClassRect compares one class's rectangular-tile model against exact
// enumeration under the documented disagreement rules (see
// compareModelExact). It reports whether the comparison ran in the
// approximate regime. An enumeration whose element indices overflow
// int64 returns that error (it wraps intmat.ErrOverflow): there is no
// exact count to compare against.
func DiffClassRect(c footprint.Class, ext []int64, tol float64) (approx bool, err error) {
	model, ex := c.RectFootprint(ext)
	n, err := footprint.ExactClassFootprintFunc(c, rectForEach(ext))
	if err != nil {
		return false, err
	}
	exact := float64(n)
	tight := ex != footprint.Approximate || rectModelDomain(c, ext)
	if bad := compareModelExact(c, model, ex, exact, float64(rectVolume(ext)), tight, tol); bad != "" {
		return ex == footprint.Approximate, fmt.Errorf("%s", bad)
	}
	return ex == footprint.Approximate, nil
}

// DiffClassTile is DiffClassRect for a hyperparallelepiped tile (Theorem 2
// model). Non-rectangular geometry has no per-dimension extents to test
// spread dominance against, so approximate predictions are held only to
// the sandwich invariants.
func DiffClassTile(c footprint.Class, t tile.Tile, tol float64) (approx bool, err error) {
	model, ex := c.TileFootprint(t)
	n, err := footprint.ExactClassFootprint(c, tile.OriginPoints(t))
	if err != nil {
		return false, err
	}
	vol, err := t.Volume()
	if err != nil {
		return false, err
	}
	exact := float64(n)
	tight := ex != footprint.Approximate
	if t.IsRect() {
		tight = tight || rectModelDomain(c, t.Extents())
	}
	if bad := compareModelExact(c, model, ex, exact, float64(vol), tight, tol); bad != "" {
		return ex == footprint.Approximate, fmt.Errorf("%s", bad)
	}
	return ex == footprint.Approximate, nil
}

// rectModelDomain reports whether the tile extents dominate the class's
// spread coefficients — the paper's working assumption (§2.2: "tile sizes
// are large relative to the offsets") under which the ≈ models carry
// quantitative accuracy. Outside this regime boundary terms dominate and
// only the sandwich invariants are enforced.
func rectModelDomain(c footprint.Class, ext []int64) bool {
	u, _, ok, err := c.SpreadCoeffs()
	if !ok || err != nil {
		return false
	}
	for k, ui := range u {
		if k >= len(ext) || float64(ext[k]) <= ui {
			return false
		}
	}
	return true
}

func rectVolume(ext []int64) int64 {
	v := int64(1)
	for _, e := range ext {
		v *= e
	}
	return v
}

// diffTheorem3 cross-checks the bounded-lattice intersection test on the
// offset differences actually present in the class.
func diffTheorem3(c footprint.Class, ext []int64) error {
	gr := c.Reduced.G
	if gr.Rows() > 3 {
		return nil // brute-force walk is exponential in the generator count
	}
	bounds := make([]int64, gr.Rows())
	for k := range bounds {
		bounds[k] = ext[k] - 1
	}
	for _, r := range c.Refs[1:] {
		diff := make([]int64, len(r.A))
		for k := range diff {
			diff[k] = r.A[k] - c.Refs[0].A[k]
		}
		if err := CheckTheorem3(gr, bounds, c.Reduced.Project(diff)); err != nil {
			return err
		}
	}
	return nil
}

// DiffNest runs the full pipeline on loopir source text. Parse or analysis
// errors are returned as-is (callers driving random sources treat them as
// "nest rejected", not as verification failures); a model-vs-enumeration
// disagreement is a verification failure.
func DiffNest(src string, tol float64) (DiffResult, error) {
	a, err := analyzeSource(src)
	if err != nil {
		return DiffResult{}, err
	}
	return DiffAnalysis(a, tol)
}

// analyzeSource runs parse → validate → classify on loopir source text.
func analyzeSource(src string) (*footprint.Analysis, error) {
	n, err := loopir.Parse(src, nil)
	if err != nil {
		return nil, err
	}
	return footprint.Analyze(n)
}

// UnionSizeAgainstEnumeration cross-checks Lemma 3's closed form against
// point-set enumeration for one generator set, bounds, and coefficient
// vector — the lattice-level analogue of the footprint diff. Lemma 3
// assumes independent generators; dependent sets are skipped.
func UnionSizeAgainstEnumeration(gen [][]int64, bounds, u []int64) error {
	m := intmat.FromRows(gen)
	if indep, err := intmat.IsOneToOne(m); err != nil || !indep {
		return nil // unrepresentable elimination: nothing to compare
	}
	b := lattice.New(m, bounds)
	base, err := b.Points()
	if err != nil {
		return nil // unrepresentable points: nothing to compare
	}
	t, err := b.Gen.MulVecChecked(u)
	if err != nil {
		return nil // unrepresentable translation: nothing to compare
	}
	exact := lattice.UnionSize(base, lattice.Translate(base, t))
	model := lattice.UnionSizeModel(bounds, u)
	if model != exact {
		return fmt.Errorf("verify: Lemma 3 union size %d != enumerated %d for gen=%v bounds=%v u=%v",
			model, exact, gen, bounds, u)
	}
	return nil
}
