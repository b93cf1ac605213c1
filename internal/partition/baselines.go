package partition

import (
	"fmt"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/tile"
)

// Baseline partitioners: the Abraham–Hudak algorithm on its restricted
// domain, and the naive shapes (rows, columns, square-ish blocks) that the
// paper's Figure 3 compares against.

// AbrahamHudak implements the rectangular partitioning of [6] for its
// program class: every reference in the nest must target a single array
// with index functions of the form A(i₁+a₁, …, i_d+a_d) — i.e. G = I for
// every reference (after ignoring other arrays that appear only once; the
// original restriction is one array total, and we enforce it).
//
// Their method sizes tile dimensions in proportion to the per-dimension
// offset spreads — exactly the paper's Example 8 result — realized here as
// a discrete search over processor grids scored by the spread objective
// Σᵢ âᵢ·Π_{j≠i} Eⱼ.
func AbrahamHudak(a *footprint.Analysis, procs int) (RectPlan, error) {
	// Domain check: exactly one array, one class, G = I.
	if len(a.Classes) != 1 {
		return RectPlan{}, fmt.Errorf("abraham-hudak: program references %d classes; the algorithm handles a single array", len(a.Classes))
	}
	c := a.Classes[0]
	if !c.G.Equal(intmat.Identity(len(a.Vars))) {
		return RectPlan{}, fmt.Errorf("abraham-hudak: reference matrix %v is not the identity; index expressions must be loop index plus constant", c.G)
	}
	spread := c.Spread()

	space := tile.BoundsOf(a.Nest)
	sizes := space.Extents()
	var best RectPlan
	bestScore := -1.0
	for _, grid := range factorizations(int64(procs), space.Dim()) {
		ext := make([]int64, space.Dim())
		if !gridExtents(ext, grid, sizes) {
			continue
		}
		score := 0.0
		for i := range ext {
			term := float64(spread[i])
			for j := range ext {
				if j != i {
					term *= float64(ext[j])
				}
			}
			score += term
		}
		if bestScore < 0 || score < bestScore {
			bestScore = score
			fp, ex := a.RectTotalFootprint(ext)
			tr, _ := a.RectTotalTraffic(ext)
			best = RectPlan{Grid: grid, Ext: ext, PredictedFootprint: fp, PredictedTraffic: tr, Exactness: ex}
		}
	}
	if bestScore < 0 {
		return RectPlan{}, fmt.Errorf("abraham-hudak: no feasible grid")
	}
	best.Grid = cloneGrid(best.Grid)
	return best, nil
}

// NaiveShape names a fixed partition shape.
type NaiveShape int

const (
	// ByRows splits the outermost dimension only.
	ByRows NaiveShape = iota
	// ByColumns splits the innermost dimension only.
	ByColumns
	// ByBlocks uses the most balanced processor grid.
	ByBlocks
)

func (s NaiveShape) String() string {
	switch s {
	case ByRows:
		return "rows"
	case ByColumns:
		return "columns"
	default:
		return "blocks"
	}
}

// Naive returns the given fixed-shape partition for P processors.
func Naive(a *footprint.Analysis, procs int, shape NaiveShape) (RectPlan, error) {
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	sizes := space.Extents()
	grid := make([]int64, l)
	for k := range grid {
		grid[k] = 1
	}
	switch shape {
	case ByRows:
		grid[0] = int64(procs)
	case ByColumns:
		grid[l-1] = int64(procs)
	case ByBlocks:
		best := int64(-1)
		var bestGrid []int64
		for _, g := range factorizations(int64(procs), l) {
			feasible := true
			for k := range g {
				if g[k] > sizes[k] {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			if s := spreadOf(g); best < 0 || s < best {
				best = s
				bestGrid = g
			}
		}
		if bestGrid == nil {
			return RectPlan{}, fmt.Errorf("partition: no feasible block grid")
		}
		grid = bestGrid
	}
	ext := make([]int64, l)
	if !gridExtents(ext, grid, sizes) {
		k := 0
		for grid[k] <= sizes[k] {
			k++
		}
		return RectPlan{}, fmt.Errorf("partition: %s shape infeasible: %d cuts in dimension of size %d", shape, grid[k], sizes[k])
	}
	fp, ex := a.RectTotalFootprint(ext)
	tr, _ := a.RectTotalTraffic(ext)
	return RectPlan{Grid: grid, Ext: ext, PredictedFootprint: fp, PredictedTraffic: tr, Exactness: ex}, nil
}
