package partition

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"looppart/internal/footprint"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
)

// Closed-form analytic fast path for the rectangular search.
//
// The paper solves its own tile-shape problem analytically: minimize the
// linearized cumulative footprint Σᵢ cᵢ·Π_{j≠i} Eⱼ subject to Π Eⱼ =
// |I|/P by Lagrange multipliers, giving Eᵢ ∝ cᵢ (Examples 8–10). When a
// nest is inside the model's domain — every class reduces to a square
// nonsingular G' (§3.4.1) with a closed-form footprint expression, and
// the iteration-space extents strictly dominate the spread coefficients
// (§2.2's "tile sizes are large relative to the offsets") — the optimal
// shape is available in O(1): compute the continuous Lagrange extents,
// round them to the nearest feasible factorization of P by dealing the
// prime factors of P greedily against the continuous targets.
//
// Integer rounding can disagree with the discrete argmin (ceil-induced
// volume variation across grids, the exact Lemma 3 pair term), so the
// analytic candidate is certified: its footprint seeds the admissible
// volume lower bound and a sequential zero-allocation sweep over the
// memoized factorization table confirms (or corrects) the choice with
// exactly the enumeration-order fold and tie-breaks of the engine path.
// The served plan is therefore byte-identical to the enumerated argmin by
// construction — the differential harness in internal/verify pins this —
// while the sweep itself is allocation-free: the factorization table is
// memoized, extents live in two reused buffers, and the evaluator scores
// through caller-provided scratch. Off-domain nests fall back to the
// parallel enumerative search unchanged.

// closedFormDisabled forces the enumerative path when set — the
// differential harness compares the two, and benchmarks isolate the fast
// path's effect. Mirrors pruneDisabled.
var closedFormDisabled atomic.Bool

// SetClosedFormDisabled toggles the closed-form fast path off (true) or
// on (false) process-wide and returns the previous setting. The
// enumerative fallback produces byte-identical plans; the toggle exists
// so tests and harnesses can prove exactly that.
func SetClosedFormDisabled(disabled bool) bool {
	return closedFormDisabled.Swap(disabled)
}

// closedFormRect attempts the analytic fast path. handled reports whether
// the request was served here (eligible nest, fast path enabled); when
// false the caller must run the enumerative search. The span
// "search.closedform" records eligibility, the fallback reason, the
// analytic grid, and whether the O(1) rounding already was the argmin.
func closedFormRect(ctx context.Context, a *footprint.Analysis, ev *footprint.Evaluator,
	sizes []int64, grids [][]int64, procs int, parent *obs.Span, reg *telemetry.Registry, log *obs.EventLog,
) (RectPlan, bool, error) {
	_, sp := obs.StartSpan(ctx, "search.closedform")
	defer sp.End()

	coeffs, reason := closedFormEligible(a, ev, sizes)
	if reason != "" {
		sp.SetAttr("eligible", false)
		sp.SetAttr("fallback", reason)
		reg.Counter("partition.closedform.fallbacks").Add(1)
		return RectPlan{}, false, nil
	}
	sp.SetAttr("eligible", true)

	analytic := analyticGrid(coeffs, sizes, int64(procs))
	seed := math.Inf(1)
	if analytic != nil {
		sp.SetAttr("analytic_grid", fmt.Sprint(analytic))
		ext := make([]int64, len(sizes))
		for k := range analytic {
			ext[k] = ceilDiv(sizes[k], analytic[k])
		}
		seed, _ = ev.RectTotalFootprintScratch(ext, nil)
	}

	best, evaluated, pruned, infeasible, found := certifySweep(ev, grids, sizes, seed, log)
	reg.Counter("partition.rect.candidates").Add(evaluated)
	reg.Counter("partition.rect.pruned").Add(pruned)
	reg.Counter("partition.rect.infeasible").Add(infeasible)
	reg.Counter("partition.closedform.hits").Add(1)
	for _, s := range []*obs.Span{parent, sp} {
		s.SetAttr("candidates", int64(len(grids)))
		s.SetAttr("evaluated", evaluated)
		s.SetAttr("pruned", pruned)
		s.SetAttr("infeasible", infeasible)
	}
	if !found {
		return RectPlan{}, true, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	match := analytic != nil && sameVec64(analytic, best.Grid)
	sp.SetAttr("analytic_match", match)
	tr, _ := a.RectTotalTraffic(best.Ext)
	best.PredictedTraffic = tr
	parent.SetAttr("grid", fmt.Sprint(best.Grid))
	parent.SetAttr("footprint", best.PredictedFootprint)
	if log != nil {
		fields := chosenFields(a, best)
		fields["evaluated"] = evaluated
		fields["pruned"] = pruned
		fields["closed_form"] = true
		fields["analytic_match"] = match
		log.Emit("partition.rect.chosen", fmt.Sprintf("grid=%v", best.Grid), fields)
	}
	return best, true, nil
}

// closedFormEligible reports why the nest is outside the closed-form
// domain (reason "" = eligible, with the Lagrange aspect-ratio
// coefficients returned for the rounding step): the fast path requires
// every class to score through a closed-form expression (square
// nonsingular reduced G' with a volume, Lemma 3 pair, or Theorem 4
// linearized form), the Lagrange coefficients to exist, and the
// iteration-space extents to strictly dominate every class's spread
// coefficients — the regime the paper's model claims (§2.2).
func closedFormEligible(a *footprint.Analysis, ev *footprint.Evaluator, sizes []int64) (coeffs []float64, reason string) {
	if closedFormDisabled.Load() {
		return nil, "disabled"
	}
	if !ev.RectClosedForm() {
		return nil, "class-without-closed-form"
	}
	coeffs, ok := ContinuousRatios(a)
	if !ok {
		return nil, "no-lagrange-ratios"
	}
	for i := range a.Classes {
		for k := range sizes {
			if u, ok := ev.SpreadCoeff(i, k); ok && float64(sizes[k]) <= u {
				return nil, "extent-not-dominating-spread"
			}
		}
	}
	return coeffs, ""
}

// analyticGrid rounds the continuous Lagrange solution to a feasible
// processor grid in O(l·log P): constrained dimensions get continuous
// target extents Eᵢ ∝ cᵢ sharing the per-tile volume, unconstrained
// (cᵢ = 0) dimensions keep their full extent, and the prime factors of P
// are dealt largest-first, each to the feasible dimension whose current
// extent overshoots its target by the largest ratio. Returns nil when the
// greedy deal cannot place a factor (the certification sweep then starts
// unseeded).
func analyticGrid(coeffs []float64, sizes []int64, procs int64) []int64 {
	l := len(sizes)
	vol := 1.0
	for _, s := range sizes {
		vol *= float64(s)
	}
	vol /= float64(procs)

	target := make([]float64, l)
	prodC, volC, constrained := 1.0, vol, 0
	for k, c := range coeffs {
		if c > 0 {
			prodC *= c
			constrained++
		} else {
			volC /= float64(sizes[k])
		}
	}
	for k, c := range coeffs {
		switch {
		case constrained == 0:
			target[k] = math.Pow(vol, 1/float64(l)) // all invariant: balance
		case c > 0:
			target[k] = c * math.Pow(volC/prodC, 1/float64(constrained))
		default:
			target[k] = float64(sizes[k])
		}
		if target[k] < 1 {
			target[k] = 1
		}
	}

	grid := make([]int64, l)
	ext := make([]int64, l)
	for k := range grid {
		grid[k] = 1
		ext[k] = sizes[k]
	}
	for _, p := range primeFactorsDesc(procs) {
		bestK := -1
		bestRatio := 0.0
		for k := 0; k < l; k++ {
			if grid[k]*p > sizes[k] {
				continue
			}
			if r := float64(ext[k]) / target[k]; bestK < 0 || r > bestRatio {
				bestK, bestRatio = k, r
			}
		}
		if bestK < 0 {
			return nil
		}
		grid[bestK] *= p
		ext[bestK] = ceilDiv(sizes[bestK], grid[bestK])
	}
	return grid
}

// primeFactorsDesc returns the prime factorization of n (with
// multiplicity), largest factor first.
func primeFactorsDesc(n int64) []int64 {
	var out []int64
	for d := int64(2); d*d <= n; d++ {
		for n%d == 0 {
			out = append(out, d)
			n /= d
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// certifySweep scans the factorization table sequentially in enumeration
// order with the exact engine arithmetic: the same evaluator, the same
// admissible volume bound (seeded with the analytic candidate's
// footprint), the same betterEps margin, and the same better() fold — so
// the winner is byte-identical to the parallel enumerative search with or
// without pruning. The sweep is allocation-free outside the event log: the
// candidate and incumbent extents live in two reused buffers and the
// evaluator scores through scratch.
func certifySweep(ev *footprint.Evaluator, grids [][]int64, sizes []int64,
	seed float64, log *obs.EventLog,
) (RectPlan, int64, int64, int64, bool) {
	l := len(sizes)
	cur := make([]int64, l)
	scratch := make([]int64, l)
	bestExt := make([]int64, l)
	var best RectPlan
	var evaluated, pruned, infeasible int64
	prune := !pruneDisabled.Load()
	bound := seed
	found := false
	for _, grid := range grids {
		feasible := true
		for k := range grid {
			if grid[k] > sizes[k] {
				feasible = false
				break
			}
			cur[k] = ceilDiv(sizes[k], grid[k])
		}
		if !feasible {
			infeasible++
			continue
		}
		if prune {
			if lb := ev.RectLowerBound(cur); lb > bound+betterEps {
				pruned++
				continue
			}
		}
		fp, ex := ev.RectTotalFootprintScratch(cur, scratch)
		evaluated++
		if fp < bound {
			bound = fp
		}
		cand := RectPlan{Grid: grid, Ext: cur, PredictedFootprint: fp, Exactness: ex}
		if log != nil {
			log.Emit("partition.rect.candidate", fmt.Sprintf("grid=%v", grid), map[string]any{
				"grid":      fmt.Sprint(cand.Grid),
				"ext":       fmt.Sprint(cand.Ext),
				"footprint": cand.PredictedFootprint,
				"exactness": cand.Exactness.String(),
			})
		}
		if !found || better(cand, best) {
			copy(bestExt, cur)
			best = cand
			best.Ext = bestExt
			found = true
		}
	}
	if found {
		best.Grid = cloneGrid(best.Grid)
		best.Ext = cloneGrid(best.Ext)
	}
	return best, evaluated, pruned, infeasible, found
}

func sameVec64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
