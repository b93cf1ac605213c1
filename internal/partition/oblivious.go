package partition

import (
	"context"
	"fmt"

	"looppart/internal/footprint"
	"looppart/internal/tile"
)

// Cache-oblivious recursive bisection, after the parallel cache-oblivious
// tiling of "PCOT: Cache Oblivious Tiling of Polyhedral Programs"
// (arXiv:1802.00166): instead of baking tile extents for one cache size
// into the plan, the iteration space is split in half recursively —
// always along the currently longest (communication-weighted) dimension —
// until each leaf holds one processor's share. Every level of the
// recursion is a valid tiling, so the working set contracts geometrically
// and the plan's locality degrades by at most a constant factor across
// cache sizes, none of which it needs to know. That also makes it the
// one family that can plan a nest whose extents are symbolic (`?N`): the
// split ratios depend only on the processor count and the per-dimension
// weights, not on the extents themselves.

// ObliviousPlan is a cache-oblivious recursive-bisection partition.
type ObliviousPlan struct {
	// Weights order the dimensions for splitting: the recursion halves
	// the dimension maximizing weight × current extent, so heavily
	// communicating dimensions are cut first. Uniform (all 1) when the
	// analysis has no closed-form spread coefficients.
	Weights []float64
	// Order lists the dimensions by descending weight (ties by index) —
	// the serialized fingerprint of the split policy.
	Order []int
	// Symbolic records that the nest's extents were unknown at planning
	// time: the plan carries the policy but no concrete assignment.
	Symbolic bool
}

// OptimizeOblivious derives the bisection policy for the analyzed nest.
// It needs no concrete extents, so symbolic nests are planned too.
func OptimizeOblivious(a *footprint.Analysis, procs int) (*ObliviousPlan, error) {
	l := len(a.Vars)
	if l == 0 {
		return nil, fmt.Errorf("partition: nest has no doall loops")
	}
	if procs <= 0 {
		return nil, fmt.Errorf("partition: need at least one processor")
	}
	weights := make([]float64, l)
	for i := range weights {
		weights[i] = 1
	}
	coeffs, ok, err := ContinuousRatiosData(a)
	if err != nil {
		return nil, err
	}
	if ok {
		// Invert the Lagrange coefficients: a dimension with a large
		// boundary cost wants long extents, i.e. to be split last, so its
		// split weight is low. Guard against all-zero coefficients.
		any := false
		for _, c := range coeffs {
			if c > 0 {
				any = true
			}
		}
		if any {
			for i, c := range coeffs {
				weights[i] = 1 / (1 + c)
			}
		}
	}
	order := make([]int, l)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < l; i++ { // stable insertion sort by descending weight
		for j := i; j > 0 && weights[order[j]] > weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return &ObliviousPlan{Weights: weights, Order: order, Symbolic: a.Nest.Symbolic()}, nil
}

// Assign returns the iteration→processor map the policy induces on a
// concrete space: walk the bisection tree, halving the processor range
// proportionally at each cut. Symbolic plans have no concrete space and
// return an error.
func (op *ObliviousPlan) Assign(space tile.Bounds, procs int) (func(p []int64) int, error) {
	if op.Symbolic {
		return nil, fmt.Errorf("partition: oblivious plan over symbolic bounds has no concrete assignment")
	}
	if len(op.Weights) != space.Dim() {
		return nil, fmt.Errorf("partition: oblivious plan dimension %d does not match space %d", len(op.Weights), space.Dim())
	}
	if procs <= 0 {
		return nil, fmt.Errorf("partition: need at least one processor")
	}
	l := space.Dim()
	return func(p []int64) int {
		lo := append([]int64(nil), space.Lo...)
		hi := append([]int64(nil), space.Hi...)
		base, cnt := 0, procs
		for cnt > 1 {
			d := op.splitDim(lo, hi, l)
			if d < 0 {
				break // single point left; surplus processors idle
			}
			ext := hi[d] - lo[d] + 1
			left := cnt / 2
			cut := lo[d] + ext*int64(left)/int64(cnt)
			if cut <= lo[d] {
				cut = lo[d] + 1
			}
			if p[d] < cut {
				hi[d] = cut - 1
				cnt = left
			} else {
				lo[d] = cut
				base += left
				cnt -= left
			}
		}
		return base
	}, nil
}

// splitDim picks the dimension maximizing weight × extent among those
// still splittable (extent ≥ 2); −1 when none is.
func (op *ObliviousPlan) splitDim(lo, hi []int64, l int) int {
	best, bestScore := -1, 0.0
	for d := 0; d < l; d++ {
		ext := hi[d] - lo[d] + 1
		if ext < 2 {
			continue
		}
		score := op.Weights[d] * float64(ext)
		if best < 0 || score > bestScore {
			best, bestScore = d, score
		}
	}
	return best
}

func (op *ObliviousPlan) String() string {
	suffix := ""
	if op.Symbolic {
		suffix = ", symbolic extents"
	}
	return fmt.Sprintf("recursive bisection (split order %v%s)", op.Order, suffix)
}

// obliviousFamily registers the bisection policy as a strategy.
type obliviousFamily struct{}

func (obliviousFamily) Name() string { return "oblivious" }

func (obliviousFamily) Optimize(_ context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	op, err := OptimizeOblivious(a, procs)
	if err != nil {
		return nil, err
	}
	return &FamilyPlan{Oblivious: op}, nil
}

func (obliviousFamily) TopK(a *footprint.Analysis, procs, k int, _ TopKOptions) ([]FamilyPlan, error) {
	return nil, ErrNoTopK
}

func init() {
	Register(obliviousFamily{})
}
