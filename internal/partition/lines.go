package partition

import (
	"fmt"

	"looppart/internal/footprint"
	"looppart/internal/layout"
	"looppart/internal/tile"
)

// Line-aware rectangular partitioning: with cache lines longer than one
// element, a fetched line drags in its storage-order neighborhood, so the
// innermost (storage-order) dimension of the tile is effectively cheaper
// to extend than the model with unit lines predicts. The optimizer scores
// candidate grids with the line-granular footprint — the closed-form
// model for identity-reduced classes, exact line enumeration otherwise —
// and the optimum elongates along storage order as lines grow.

// OptimizeRectLines is OptimizeRect with a line-granular objective.
// The enumeration fallback bounds the candidate tile volume; keep the
// per-processor share modest (≲ 10⁵ iterations) when non-identity classes
// are present.
func OptimizeRectLines(a *footprint.Analysis, procs int, lineSize int64) (RectPlan, error) {
	if lineSize <= 0 {
		return RectPlan{}, fmt.Errorf("partition: line size must be positive")
	}
	sizes, grids, err := rectGrids(a, procs)
	if err != nil {
		return RectPlan{}, err
	}
	mm, err := layout.MapNest(a.Nest, lineSize)
	if err != nil {
		return RectPlan{}, err
	}
	space := tile.BoundsOf(a.Nest)
	l := len(sizes)

	// Candidates score on the engine's worker pool; the line objective has
	// no cheap admissible bound (line enumeration can undercut the unit-line
	// volume), so every feasible grid is evaluated. The fold below picks the
	// winner in enumeration order, matching the sequential scan exactly.
	type lineCand struct {
		ext   []int64
		fp    float64
		err   error
		state uint8
	}
	cands := make([]lineCand, len(grids))
	forEachCandidate(len(grids), func(i int) {
		grid := grids[i]
		c := &cands[i]
		ext := make([]int64, l)
		if !gridExtents(ext, grid, sizes) {
			return // infeasible
		}
		c.ext = ext
		c.fp, c.err = LineFootprint(a, ext, lineSize, mm, space)
		c.state = candEvaluated
	})

	var best RectPlan
	found := false
	for i := range cands {
		c := &cands[i]
		if c.state != candEvaluated {
			continue
		}
		if c.err != nil {
			// First error in enumeration order, as the sequential loop
			// surfaced it.
			return RectPlan{}, c.err
		}
		cand := RectPlan{Grid: grids[i], Ext: c.ext, PredictedFootprint: c.fp, Exactness: footprint.Approximate}
		if !found || better(cand, best) {
			best = cand
			found = true
		}
	}
	if !found {
		return RectPlan{}, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	best.Grid = cloneGrid(best.Grid)
	return best, nil
}

// LineFootprint scores one rectangular tile at line granularity: the
// closed-form model per identity-reduced class, exact line enumeration of
// the tile anchored at the space's lower corner (clamped to the space, so
// ragged last tiles never index outside the mapped arrays) for the rest.
func LineFootprint(a *footprint.Analysis, ext []int64, lineSize int64, mm *layout.MemoryMap, space tile.Bounds) (float64, error) {
	total := 0.0
	var pts [][]int64 // lazily built anchored tile points
	for _, c := range a.Classes {
		if v, ok := c.RectFootprintLinesModel(ext, lineSize); ok {
			total += v
			continue
		}
		if pts == nil {
			hi := make([]int64, len(ext))
			for k := range ext {
				hi[k] = space.Lo[k] + ext[k] - 1
				if hi[k] > space.Hi[k] {
					hi[k] = space.Hi[k]
				}
			}
			(tile.Bounds{Lo: space.Lo, Hi: hi}).ForEach(func(p []int64) bool {
				pts = append(pts, append([]int64(nil), p...))
				return true
			})
		}
		one := &footprint.Analysis{Nest: a.Nest, Vars: a.Vars, Classes: []footprint.Class{c}}
		n, err := one.ExactLineFootprint(pts, mm)
		if err != nil {
			return 0, err
		}
		total += float64(n)
	}
	return total, nil
}
