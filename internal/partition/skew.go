package partition

import (
	"context"
	"fmt"
	"math"
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
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return SkewPlan{}, fmt.Errorf("partition: nest has no doall loops")
	}
	vol := space.Size() / int64(procs)
	if vol == 0 {
		return SkewPlan{}, fmt.Errorf("partition: more processors than iterations")
	}

	reg := telemetry.Active()
	log := obs.EventsFrom(ctx)
	exts := volumeFactorizations(vol, l)
	skews := unimodularSkews(l, maxSkew)
	ev := footprint.NewEvaluator(a)

	// Shape-independent Theorem 2 coefficients, once per (skew, class).
	terms := make([][]skewClassTerms, len(skews))
	allClosed := true
	forEachCandidate(len(skews), func(si int) {
		terms[si] = skewTermsFor(ev, skews[si])
	})
	for _, t := range terms[0] {
		if !t.closed {
			allClosed = false
		}
	}

	ns := len(skews)
	n := len(exts) * ns
	type skewCand struct {
		fp    float64
		ex    footprint.Exactness
		state uint8
	}
	cands := make([]skewCand, n)
	bound := newMinBound()
	prune := !pruneDisabled.Load()
	var evaluated, pruned atomic.Int64
	forEachCandidate(n, func(i int) {
		ext := exts[i/ns]
		si := i % ns
		c := &cands[i]
		// With every extent positive and S unimodular, L = D·S is always
		// nonsingular (|det L| = vol), so every candidate is feasible.
		if allClosed {
			// Pure closed-form: evaluate from the memoized coefficients
			// without materializing L. Same float accumulation order as
			// Analysis.TileTotalFootprint: per class, volume term then row
			// terms i ascending; classes in order; worst exactness.
			total := 0.0
			for _, t := range terms[si] {
				total += float64(intmat.SatMul(vol, t.volCoeff))
				for k, rc := range t.rowCoeff {
					total += float64(intmat.SatMul(vol/ext[k], rc))
				}
			}
			c.fp, c.ex = total, footprint.Approximate
			c.state = candEvaluated
			evaluated.Add(1)
			bound.observe(c.fp)
			return
		}
		// Mixed closed/enumerated classes: the closed-form subtotal is an
		// admissible lower bound on the full objective (enumerated classes
		// contribute ≥ 0), so dominated candidates skip the expensive
		// enumeration. Rect candidates (identity skew, si == 0) are never
		// pruned: RectBaseline is the exact minimum over all of them.
		closedPart := 0.0
		for _, t := range terms[si] {
			if !t.closed {
				continue
			}
			closedPart += float64(intmat.SatMul(vol, t.volCoeff))
			for k, rc := range t.rowCoeff {
				closedPart += float64(intmat.SatMul(vol/ext[k], rc))
			}
		}
		if prune && si != 0 && closedPart > bound.value() {
			c.state = candPruned
			pruned.Add(1)
			return
		}
		t := tile.Tile{L: intmat.Diag(ext...).Mul(skews[si])}
		c.fp, c.ex = ev.TileTotalFootprint(t)
		c.state = candEvaluated
		evaluated.Add(1)
		bound.observe(c.fp)
	})
	reg.Counter("partition.skew.candidates").Add(evaluated.Load())
	reg.Counter("partition.skew.pruned").Add(pruned.Load())
	sp.SetAttr("candidates", int64(n))
	sp.SetAttr("evaluated", evaluated.Load())
	sp.SetAttr("pruned", pruned.Load())
	sp.SetAttr("skews", int64(ns))

	// Deterministic reduction in enumeration order: first strict
	// improvement wins, exactly as the sequential scan chose.
	buildTile := func(i int) tile.Tile {
		return tile.Tile{L: intmat.Diag(exts[i/ns]...).Mul(skews[i%ns])}
	}
	var best SkewPlan
	bestRect := -1.0
	found := false
	for i := range cands {
		c := &cands[i]
		if c.state != candEvaluated {
			continue
		}
		if i%ns == 0 && (bestRect < 0 || c.fp < bestRect) {
			bestRect = c.fp
		}
		if !found || c.fp < best.PredictedFootprint {
			t := buildTile(i)
			best = SkewPlan{Tile: t, PredictedFootprint: c.fp, Exactness: c.ex}
			found = true
			// The decision trace records only the improvements (the chain
			// of running minima), not every candidate; pruned candidates
			// never appear — they cannot improve on the bound.
			if log != nil {
				log.Emit("partition.skew.improved", t.String(), map[string]any{
					"footprint": c.fp,
					"exactness": c.ex.String(),
					"detL":      t.Volume(),
				})
			}
		}
	}
	if !found {
		return SkewPlan{}, fmt.Errorf("partition: no feasible tile of volume %d", vol)
	}
	best.RectBaseline = bestRect
	sp.SetAttr("tile", best.Tile.String())
	sp.SetAttr("footprint", best.PredictedFootprint)
	if log != nil {
		// candidates reports this run's evaluations, not the cumulative
		// process-wide counter (which spans successive optimizer runs).
		log.Emit("partition.skew.chosen", best.Tile.String(), map[string]any{
			"footprint":     best.PredictedFootprint,
			"rect_baseline": best.RectBaseline,
			"exactness":     best.Exactness.String(),
			"candidates":    evaluated.Load(),
			"pruned":        pruned.Load(),
		})
	}
	return best, nil
}

// volumeFactorizations enumerates ordered factorizations of v into l
// positive extents. Volumes with large prime factors yield few shapes;
// that matches the reality that load balance constrains tile volumes.
func volumeFactorizations(v int64, l int) [][]int64 {
	return factorizations(v, l)
}
