package footprint

import (
	"math"

	"looppart/internal/intmat"
	"looppart/internal/lattice"
	"looppart/internal/tile"
)

// Evaluator scores candidate tiles against an Analysis with the per-class
// shape-independent terms hoisted out of the per-candidate loop. The
// searches in internal/partition evaluate hundreds to thousands of
// candidate shapes against the same Analysis; everything that does not
// depend on the tile — the class invariance test, the spread
// coefficients uᵢ (a Cramer solve per class), and the projected spread
// â' — is computed once here instead of once per candidate.
//
// The evaluator is a pure accelerator: RectTotalFootprint and
// TileTotalFootprint return bit-identical values to the Analysis methods
// of the same name (same class order, same arithmetic, same exactness
// fold). It is safe for concurrent use: all state is written during
// construction and only read afterwards.
type Evaluator struct {
	a       *Analysis
	classes []classEval

	// numSquare counts classes with square nonsingular reduced G — the
	// coefficient of the rectangular volume lower bound.
	numSquare int
}

// classEval caches one class's shape-independent terms.
type classEval struct {
	c      *Class
	square bool // reduced G square and nonsingular

	// u are the spread coefficients |uᵢ| of Theorem 4 (â' = u·G'), valid
	// when uOK; solving them per candidate is the dominant avoidable cost
	// of the rectangular search.
	u   []float64
	uOK bool

	// uOverflow and pairOverflow record a Theorem 4 or Lemma 3
	// decomposition whose determinants exceed int64; where
	// Class.RectFootprint would use it, the class scores +Inf.
	uOverflow, pairOverflow bool

	// pairU is the integral translation decomposition of a two-reference
	// class (Proposition 1 / Lemma 3), rounded to int64 as RectFootprint
	// does; nil when the class has ≠ 2 refs or the solution is not
	// integral.
	pairU []int64

	// gr is the reduced reference matrix, projSpread the projected spread
	// â' (Theorem 2's replacement row).
	gr         intmat.Mat
	projSpread []int64
}

// NewEvaluator analyzes a once and returns an evaluator over it.
func NewEvaluator(a *Analysis) *Evaluator {
	e := &Evaluator{a: a, classes: make([]classEval, len(a.Classes))}
	for i := range a.Classes {
		c := &a.Classes[i]
		ce := classEval{c: c, gr: c.Reduced.G}
		ce.square = ce.gr.Rows() == ce.gr.Cols() && ce.gr.IsNonsingular()
		if ce.square {
			ce.projSpread = c.Reduced.Project(c.Spread())
			e.numSquare++
			var err error
			ce.u, _, ce.uOK, err = c.SpreadCoeffs()
			ce.uOverflow = err != nil
			if len(c.Refs) == 2 {
				u, integral, ok, err := c.PairCoeffs()
				ce.pairOverflow = err != nil
				if ok && integral {
					ce.pairU = make([]int64, len(u))
					for k := range u {
						ce.pairU[k] = int64(math.Round(u[k]))
					}
				}
			}
		}
		e.classes[i] = ce
	}
	return e
}

// Analysis returns the underlying analysis.
func (e *Evaluator) Analysis() *Analysis { return e.a }

// RectTotalFootprint is Analysis.RectTotalFootprint with the cached
// per-class terms: identical values, no per-candidate rational solves.
func (e *Evaluator) RectTotalFootprint(ext []int64) (float64, Exactness) {
	return e.RectTotalFootprintScratch(ext, nil)
}

// RectTotalFootprintScratch is RectTotalFootprint with a caller-provided
// scratch buffer (len ≥ len(ext)) absorbing the only per-call allocation
// of the closed-form class paths — the Lemma 3 pair-union bounds. The
// values are bit-identical to RectTotalFootprint; a nil or short scratch
// falls back to allocating. The scratch is overwritten per class, so one
// buffer serves a whole sequential candidate sweep.
func (e *Evaluator) RectTotalFootprintScratch(ext, scratch []int64) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for i := range e.classes {
		v, ex := e.classes[i].rectFootprint(ext, scratch)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// RectClosedForm reports whether every class of the analysis scores
// through a closed-form rectangular expression — square nonsingular
// reduced G' and a single-reference (volume), integral-pair (Lemma 3), or
// linearized-coefficient (Theorem 4) form — i.e. RectTotalFootprint never
// falls back to per-candidate enumeration. internal/partition's rect scan
// runs inline, off the worker pool, when it holds.
func (e *Evaluator) RectClosedForm() bool {
	for i := range e.classes {
		ce := &e.classes[i]
		if !ce.square {
			return false
		}
		if len(ce.c.Refs) != 1 && ce.pairU == nil && !ce.uOK && !ce.pairOverflow && !ce.uOverflow {
			return false
		}
	}
	return true
}

// rectFootprint mirrors Class.RectFootprint exactly, reading the cached
// decomposition instead of re-solving it. scratch, when long enough,
// holds the pair-union bounds; nil allocates as before.
func (ce *classEval) rectFootprint(ext, scratch []int64) (float64, Exactness) {
	if !ce.square {
		return ce.c.rectEnumOrModel(ext)
	}
	base := 1.0
	for _, x := range ext {
		base *= float64(x)
	}
	if len(ce.c.Refs) == 1 {
		return base, Exact
	}
	if ce.pairOverflow {
		return math.Inf(1), Approximate
	}
	if ce.pairU != nil {
		bounds := scratch
		if len(bounds) < len(ext) {
			bounds = make([]int64, len(ext))
		}
		bounds = bounds[:len(ext)]
		for k := range ext {
			bounds[k] = ext[k] - 1
		}
		return float64(lattice.UnionSizeModel(bounds, ce.pairU)), Exact
	}
	// Linearized Theorem 4 (Class.RectFootprintLinearized) on the cached
	// coefficients.
	if ce.uOverflow {
		return math.Inf(1), Approximate
	}
	if !ce.uOK {
		return ce.c.rectEnumOrModel(ext)
	}
	total := base
	for i, ui := range ce.u {
		term := ui
		for j, x := range ext {
			if j == i {
				continue
			}
			term *= float64(x)
		}
		total += term
	}
	return total, Approximate
}

// TileTotalFootprint is Analysis.TileTotalFootprint with the projected
// spread and reduced G cached: identical values, only the shape-dependent
// determinants are computed per candidate.
func (e *Evaluator) TileTotalFootprint(t tile.Tile) (float64, Exactness) {
	total := 0.0
	worst := Exact
	for i := range e.classes {
		v, ex := e.classes[i].tileFootprint(t)
		total += v
		if ex > worst {
			worst = ex
		}
	}
	return total, worst
}

// tileFootprint mirrors Class.TileFootprint on the cached terms.
func (ce *classEval) tileFootprint(t tile.Tile) (float64, Exactness) {
	if !ce.square {
		return ce.c.tileEnumOrModel(t)
	}
	return tileModelFootprint(t, ce.gr, ce.projSpread)
}

// RectLowerBound returns an admissible lower bound on RectTotalFootprint:
// every class with square nonsingular reduced G' contributes at least the
// tile volume Π extⱼ (single reference: exactly the volume; a union of
// translates: at least one translate; the linearized form: volume plus
// nonnegative spread terms), and classes without a closed form contribute
// at least zero. The bound is monotone in the volume — the paper's
// Π(Lⱼⱼ+1) leading term — so a candidate whose volume term alone exceeds
// an incumbent's full footprint can be discarded before model evaluation.
func (e *Evaluator) RectLowerBound(ext []int64) float64 {
	vol := 1.0
	for _, x := range ext {
		vol *= float64(x)
	}
	return float64(e.numSquare) * vol
}
