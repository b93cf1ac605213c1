package partition

import (
	"fmt"
	"math"

	"looppart/internal/footprint"
	"looppart/internal/telemetry"
)

// Top-K candidate surfacing for the autotune tournament: instead of the
// argmin alone, return the K best-ranked plans of a search so a measured
// replay can arbitrate among them. Each family's top-K scores through the
// same scan as its argmin (scanRect, skewSpace.scan) and ranks with the
// argmin's own fold (better() for rectangles, strict footprint
// improvement in enumeration order for skews), applied as a repeated
// deterministic selection — so result[0] is always bit-identical to the
// corresponding argmin search, whatever the worker-pool size.
//
// Lower-bound pruning is disabled here on purpose: pruning is admissible
// only against the global minimum, and a candidate dominated by the best
// plan can still be a legitimate runner-up. A candidate scored +Inf (its
// footprint overflows int64) is no runner-up: it is never ranked, and a
// scan with nothing else returns an error wrapping intmat.ErrOverflow.

// OptimizeRectTopK returns up to k rectangular plans ranked best-first by
// the sequential comparison (footprint, then grid balance, then
// lexicographic grid). Plans are deduplicated by tile extents: two grids
// inducing the same extents yield identical tilings, hence identical
// measurements, so only the better-ranked one is kept. result[0] equals
// the OptimizeRect plan.
func OptimizeRectTopK(a *footprint.Analysis, procs, k int) ([]RectPlan, error) {
	sizes, grids, err := rectGrids(a, procs)
	if err != nil {
		return nil, err
	}
	scan := scanRect(footprint.NewEvaluator(a), grids, sizes, false)
	telemetry.Active().Counter("partition.rect.topk.candidates").Add(scan.evaluated.Load())
	ranked := selectTopK(len(scan.cands), k,
		func(i int) bool { return scan.cands[i].state == candEvaluated && !math.IsInf(scan.cands[i].fp, 1) },
		func(i, j int) bool { return better(scan.plan(i), scan.plan(j)) },
		func(i int) string { return fmt.Sprint(scan.cands[i].ext) })
	if len(ranked) == 0 {
		if scan.evaluated.Load() > 0 {
			return nil, checkScored(math.Inf(1))
		}
		return nil, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	out := make([]RectPlan, len(ranked))
	for r, i := range ranked {
		p := scan.plan(i)
		p.Grid, p.Ext = cloneGrid(p.Grid), cloneGrid(p.Ext)
		p.PredictedTraffic, _ = a.RectTotalTraffic(p.Ext)
		out[r] = p
	}
	return out, nil
}

// OptimizeSkewTopK returns up to k hyperparallelepiped plans ranked
// best-first by predicted footprint (ties to the earlier candidate in
// enumeration order, the sequential search's tie-break). Plans are
// deduplicated by the tile matrix L. result[0] equals the OptimizeSkew
// plan.
func OptimizeSkewTopK(a *footprint.Analysis, procs int, maxSkew int64, k int) ([]SkewPlan, error) {
	space, err := newSkewSpace(a, procs, maxSkew)
	if err != nil {
		return nil, err
	}
	scan := space.scan(false)
	telemetry.Active().Counter("partition.skew.topk.candidates").Add(scan.evaluated.Load())
	ranked := selectTopK(len(scan.cands), k,
		func(i int) bool { return scan.cands[i].state == candEvaluated && !math.IsInf(scan.cands[i].fp, 1) },
		func(i, j int) bool { return scan.cands[i].fp < scan.cands[j].fp },
		// A tile beyond int64 keys as the empty matrix; ranked, it fails
		// below.
		func(i int) string { t, _ := space.tile(i); return t.L.String() })
	if len(ranked) == 0 {
		return nil, checkScored(math.Inf(1))
	}
	baseline := scan.rectBaseline(len(space.skews))
	out := make([]SkewPlan, len(ranked))
	for r, i := range ranked {
		c := &scan.cands[i]
		t, err := space.tile(i)
		if err != nil {
			return nil, err
		}
		out[r] = SkewPlan{Tile: t, PredictedFootprint: c.fp, Exactness: c.ex, RectBaseline: baseline}
	}
	return out, nil
}

// selectTopK returns the indices of up to k (at least one) live
// candidates among n, best first. Each round folds the remaining live
// candidates in enumeration order, keeping the first that beats the
// incumbent — the argmin's own fold — and retires the winner. A winner
// whose key repeats a better-ranked one's describes the same tiling and
// is dropped.
func selectTopK(n, k int, live func(i int) bool, beats func(i, j int) bool, key func(i int) string) []int {
	k = max(k, 1)
	taken := make([]bool, n)
	seen := map[string]bool{}
	var out []int
	for len(out) < k {
		best := -1
		for i := 0; i < n; i++ {
			if !taken[i] && live(i) && (best < 0 || beats(i, best)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		if id := key(best); !seen[id] {
			seen[id] = true
			out = append(out, best)
		}
	}
	return out
}
