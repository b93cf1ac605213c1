package partition

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

const minInt64 = math.MinInt64

// Hyperparallelepiped (skewed) partition search. Rectangular tiles are a
// special case; the paper motivates the general case with Example 3, where
// a parallelogram tile internalizes the inter-iteration communication that
// every rectangular tile must pay for.
//
// The search enumerates tiles L = D·S where S is a small-entry unimodular
// skew matrix (so the tiling still covers the integer lattice exactly) and
// D a diagonal matrix of extents drawn from the factorizations of the
// per-processor volume, scoring each candidate with the Theorem 2 model
// (falling back to enumeration for classes without a closed form).
//
// The Theorem 2 terms factor: with L = D·S and G' square, the objective is
//
//	|det LG'| + Σᵢ |det (LG')_{i→â'}|
//	  = vol·|det G'| + Σᵢ (vol/dᵢ)·|det ((S·G')_{i→â'})|
//
// because row i of D·S·G' is dᵢ·(S·G')ᵢ and the determinant is linear in
// each row. The |det ((S·G')_{i→â'})| coefficients depend only on the skew
// and the class, so the engine computes them once per (skew, class) pair
// and each of the |skews|×|factorizations| candidates costs l integer
// multiply-adds per class instead of l+1 determinant eliminations.

// SkewPlan is the result of the parallelepiped search.
type SkewPlan struct {
	Tile               tile.Tile
	PredictedFootprint float64
	Exactness          footprint.Exactness
	// RectBaseline is the best rectangular footprint found during the
	// same search, for reporting the skew advantage.
	RectBaseline float64
}

func (p SkewPlan) String() string {
	return fmt.Sprintf("%v footprint=%.1f (best rect %.1f)", p.Tile, p.PredictedFootprint, p.RectBaseline)
}

// unimodularSkews enumerates l×l unimodular matrices of the form
// I + single off-diagonal entry in [-maxSkew, maxSkew], plus the identity
// (always first). These generate the practically useful shears; composing
// two shears is covered by scoring tiles after extent scaling.
func unimodularSkews(l int, maxSkew int64) []intmat.Mat {
	out := []intmat.Mat{intmat.Identity(l)}
	for r := 0; r < l; r++ {
		for c := 0; c < l; c++ {
			if r == c {
				continue
			}
			for s := -maxSkew; s <= maxSkew; s++ {
				if s == 0 {
					continue
				}
				m := intmat.Identity(l)
				m.Set(r, c, s)
				out = append(out, m)
			}
		}
	}
	return out
}

// skewClassTerms carries the shape-independent Theorem 2 coefficients of
// one (skew, class) pair: volCoeff = |det G'| and rowCoeff[i] =
// |det ((S·G')_{i→â'})|. closed is false for classes without a square
// reduced G, which fall back to exact enumeration per candidate.
type skewClassTerms struct {
	closed   bool
	volCoeff int64
	rowCoeff []int64
}

// skewTermsFor computes the per-class coefficients for one skew matrix.
// A class whose coefficients are not representable in int64 (overflow in
// S·G' or a determinant beyond int64) is left closed=false, so those
// candidates score through the overflow-checked TileTotalFootprint path
// instead of a wrapped coefficient.
func skewTermsFor(ev *footprint.Evaluator, s intmat.Mat) []skewClassTerms {
	a := ev.Analysis()
	terms := make([]skewClassTerms, len(a.Classes))
	for ci := range a.Classes {
		c := &a.Classes[ci]
		gr := c.Reduced.G
		if gr.Rows() != gr.Cols() || !gr.IsNonsingular() {
			continue // enumerated per candidate
		}
		if t, ok := classTermsFor(c, s, gr); ok {
			terms[ci] = t
		}
	}
	return terms
}

func classTermsFor(c *footprint.Class, s, gr intmat.Mat) (skewClassTerms, bool) {
	sg, err := s.MulChecked(gr)
	if err != nil {
		return skewClassTerms{}, false
	}
	grd, err := gr.DetChecked()
	if err != nil || grd == minInt64 {
		return skewClassTerms{}, false
	}
	spread := c.Reduced.Project(c.Spread())
	t := skewClassTerms{closed: true, rowCoeff: make([]int64, sg.Rows())}
	t.volCoeff = abs64(grd)
	for i := 0; i < sg.Rows(); i++ {
		rd, err := sg.WithRow(i, spread).DetChecked()
		if err != nil || rd == minInt64 {
			return skewClassTerms{}, false
		}
		t.rowCoeff[i] = abs64(rd)
	}
	return t, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// OptimizeSkew searches hyperparallelepiped tiles of volume |space|/P for
// the minimal predicted cumulative footprint. maxSkew bounds the shear
// entries (2 or 3 covers the paper's examples). Candidates are scored on
// the engine's worker pool; the plan is bit-identical to a sequential
// scan regardless of pool size.
//
// The search runs under a "search.skewed" span in ctx recording the
// candidate count, the evaluated/pruned split, and the winning tile.
func OptimizeSkew(ctx context.Context, a *footprint.Analysis, procs int, maxSkew int64) (SkewPlan, error) {
	_, sp := obs.StartSpan(ctx, "search.skewed")
	defer sp.End()
	space, err := newSkewSpace(a, procs, maxSkew)
	if err != nil {
		return SkewPlan{}, err
	}
	reg := telemetry.Active()
	log := obs.EventsFrom(ctx)
	scan := space.scan(!pruneDisabled.Load())
	evaluated, pruned := scan.evaluated.Load(), scan.pruned.Load()
	reg.Counter("partition.skew.candidates").Add(evaluated)
	reg.Counter("partition.skew.pruned").Add(pruned)
	sp.SetAttr("candidates", int64(len(scan.cands)))
	sp.SetAttr("evaluated", evaluated)
	sp.SetAttr("pruned", pruned)
	sp.SetAttr("skews", int64(len(space.skews)))

	// Deterministic reduction in enumeration order: first strict
	// improvement wins, exactly as the sequential scan chose.
	var best SkewPlan
	found := false
	for i := range scan.cands {
		c := &scan.cands[i]
		if c.state != candEvaluated {
			continue
		}
		if !found || c.fp < best.PredictedFootprint {
			t, err := space.tile(i)
			if err != nil {
				return SkewPlan{}, err
			}
			best = SkewPlan{Tile: t, PredictedFootprint: c.fp, Exactness: c.ex}
			found = true
			// The decision trace records only the improvements (the chain
			// of running minima), not every candidate; pruned candidates
			// never appear — they cannot improve on the bound.
			if log != nil {
				log.Emit("partition.skew.improved", t.String(), map[string]any{
					"footprint": c.fp,
					"exactness": c.ex.String(),
					"detL":      space.vol,
				})
			}
		}
	}
	if !found {
		return SkewPlan{}, fmt.Errorf("partition: no feasible tile of volume %d", space.vol)
	}
	if err := checkScored(best.PredictedFootprint); err != nil {
		return SkewPlan{}, err
	}
	best.RectBaseline = scan.rectBaseline(len(space.skews))
	sp.SetAttr("tile", best.Tile.String())
	sp.SetAttr("footprint", best.PredictedFootprint)
	if log != nil {
		// candidates reports this run's evaluations, not the cumulative
		// process-wide counter (which spans successive optimizer runs).
		log.Emit("partition.skew.chosen", best.Tile.String(), map[string]any{
			"footprint":     best.PredictedFootprint,
			"rect_baseline": best.RectBaseline,
			"exactness":     best.Exactness.String(),
			"candidates":    evaluated,
			"pruned":        pruned,
		})
	}
	return best, nil
}

// skewSpace is the candidate space of one skewed search: candidate i
// pairs the extents exts[i/len(skews)] with the shear skews[i%len(skews)]
// (the identity first), and terms holds each (skew, class) pair's
// shape-independent Theorem 2 coefficients. The argmin (OptimizeSkew) and
// the top-K (OptimizeSkewTopK) both score through it.
type skewSpace struct {
	ev     *footprint.Evaluator
	vol    int64
	exts   [][]int64
	skews  []intmat.Mat
	terms  [][]skewClassTerms
	closed []bool // per skew: every class takes Theorem 2's closed form
}

func newSkewSpace(a *footprint.Analysis, procs int, maxSkew int64) (*skewSpace, error) {
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return nil, fmt.Errorf("partition: nest has no doall loops")
	}
	vol := space.Size() / int64(procs)
	if vol == 0 {
		return nil, fmt.Errorf("partition: more processors than iterations")
	}
	s := &skewSpace{
		ev:    footprint.NewEvaluator(a),
		vol:   vol,
		exts:  volumeFactorizations(vol, l),
		skews: unimodularSkews(l, maxSkew),
	}
	// Shape-independent Theorem 2 coefficients, once per (skew, class).
	s.terms = make([][]skewClassTerms, len(s.skews))
	forEachCandidate(len(s.skews), func(si int) {
		s.terms[si] = skewTermsFor(s.ev, s.skews[si])
	})
	s.closed = make([]bool, len(s.skews))
	for si, terms := range s.terms {
		s.closed[si] = !slices.ContainsFunc(terms, func(t skewClassTerms) bool { return !t.closed })
	}
	return s, nil
}

// tile materializes candidate i's tile L = D·S; an entry beyond int64 is
// an error wrapping intmat.ErrOverflow.
func (s *skewSpace) tile(i int) (tile.Tile, error) {
	ns := len(s.skews)
	l, err := intmat.Diag(s.exts[i/ns]...).MulChecked(s.skews[i%ns])
	return tile.Tile{L: l}, err
}

// closedSum is candidate i's Theorem 2 footprint summed over its
// closed-form classes from the memoized coefficients, without
// materializing L. A term beyond int64 makes the sum +Inf, as the per-tile
// model scores the same overflow, and the accumulation order is
// Analysis.TileTotalFootprint's: per class the volume term, then the row
// terms in ascending order.
func (s *skewSpace) closedSum(i int) float64 {
	ns := len(s.skews)
	ext := s.exts[i/ns]
	total := 0.0
	for _, t := range s.terms[i%ns] {
		if !t.closed {
			continue
		}
		v, ok := intmat.CheckedMul(s.vol, t.volCoeff)
		if !ok {
			return math.Inf(1)
		}
		total += float64(v)
		for k, rc := range t.rowCoeff {
			if v, ok = intmat.CheckedMul(s.vol/ext[k], rc); !ok {
				return math.Inf(1)
			}
			total += float64(v)
		}
	}
	return total
}

// score is candidate i's model footprint: the closed-form sum when every
// class has coefficients under its skew, else the evaluator's per-tile
// model, which enumerates the classes without a closed form. Both score a
// footprint beyond int64 +Inf, as they do a tile matrix beyond it.
func (s *skewSpace) score(i int) (float64, footprint.Exactness) {
	if s.closed[i%len(s.skews)] {
		return s.closedSum(i), footprint.Approximate
	}
	t, err := s.tile(i)
	if err != nil {
		return math.Inf(1), footprint.Approximate
	}
	return s.ev.TileTotalFootprint(t)
}

// skewCand is one candidate of a skew scan and, once evaluated, its
// footprint.
type skewCand struct {
	fp    float64
	ex    footprint.Exactness
	state uint8
}

// skewScan is the outcome of one skew scan: a candidate per (extents,
// skew) pair, in enumeration order, and the evaluated / pruned split.
type skewScan struct {
	cands             []skewCand
	evaluated, pruned atomic.Int64
}

// scan scores every candidate on the engine's worker pool. With L = D·S,
// every extent positive and S unimodular, L is nonsingular (|det L| =
// vol), so every candidate is feasible.
//
// With prune set, a candidate whose skew leaves classes to the per-tile
// model is pruned when its closed-form subtotal, an admissible lower bound
// on the full objective (the other classes contribute ≥ 0), exceeds the
// best footprint so far: it skips the expensive enumeration. Rect
// candidates (identity skew) are never pruned: rectBaseline is the exact
// minimum over all of them.
func (s *skewSpace) scan(prune bool) *skewScan {
	ns := len(s.skews)
	sc := &skewScan{cands: make([]skewCand, len(s.exts)*ns)}
	bound := newMinBound()
	forEachCandidate(len(sc.cands), func(i int) {
		c := &sc.cands[i]
		if prune && i%ns != 0 && !s.closed[i%ns] && s.closedSum(i) > bound.value() {
			c.state = candPruned
			sc.pruned.Add(1)
			return
		}
		c.fp, c.ex = s.score(i)
		c.state = candEvaluated
		sc.evaluated.Add(1)
		bound.observe(c.fp)
	})
	return sc
}

// rectBaseline is the best footprint among the scan's rectangular
// (identity-skew) candidates.
func (sc *skewScan) rectBaseline(ns int) float64 {
	best := -1.0
	for i := 0; i < len(sc.cands); i += ns {
		if fp := sc.cands[i].fp; best < 0 || fp < best {
			best = fp
		}
	}
	return best
}

// volumeFactorizations enumerates ordered factorizations of v into l
// positive extents. Volumes with large prime factors yield few shapes;
// that matches the reality that load balance constrains tile volumes.
func volumeFactorizations(v int64, l int) [][]int64 {
	return factorizations(v, l)
}
