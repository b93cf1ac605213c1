// Package partition derives loop partitions that minimize the predicted
// communication volume: rectangular tilings via discrete search over
// processor-grid factorizations, reported beside the paper's closed-form
// Lagrange ratios (Examples 8–10), hyperparallelepiped (skewed) tilings via a
// bounded search over integer edge matrices scored with the Theorem 2
// model, communication-free hyperplane partitions in the style of
// Ramanujam and Sadayappan, and the Abraham–Hudak rectangular baseline for
// its restricted program class.
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

// RectPlan is a rectangular partition: a per-dimension processor grid and
// the induced tile extents.
type RectPlan struct {
	Grid []int64 // processors per dimension; Π Grid = P
	Ext  []int64 // tile extents per dimension: ceil(N_k / Grid_k)

	// PredictedFootprint is the model cumulative footprint per tile
	// (misses on an infinite cache) and PredictedTraffic the per-tile
	// communication term.
	PredictedFootprint float64
	PredictedTraffic   float64
	Exactness          footprint.Exactness
}

// Tile returns the plan's tile.
func (p RectPlan) Tile() tile.Tile { return tile.Rect(p.Ext...) }

func (p RectPlan) String() string {
	return fmt.Sprintf("grid=%v ext=%v footprint=%.1f traffic=%.1f",
		p.Grid, p.Ext, p.PredictedFootprint, p.PredictedTraffic)
}

// ContinuousRatios returns the closed-form optimal aspect ratios of the
// rectangular tile extents, from the Lagrange conditions on the linearized
// objective Σᵢ cᵢ·Π_{j≠i} Eⱼ with Π Eⱼ fixed: Eᵢ ∝ cᵢ, where
// cᵢ = Σ_classes |uᵢ| (Example 8's Li:Lj:Lk :: 2:3:4).
//
// ok is false if any class required enumeration (no closed form); classes
// whose footprint is shape-invariant contribute zero. A zero coefficient
// means the objective does not constrain that dimension (any extent is
// optimal in the model; larger is better for boundary effects). A
// decomposition beyond int64 is an error wrapping intmat.ErrOverflow.
func ContinuousRatios(a *footprint.Analysis) (coeffs []float64, ok bool, err error) {
	return continuousRatios(a, footprint.Class.SpreadCoeffs)
}

func continuousRatios(a *footprint.Analysis, solve func(footprint.Class) ([]float64, bool, bool, error)) ([]float64, bool, error) {
	coeffs := make([]float64, len(a.Vars))
	for _, c := range a.Classes {
		if c.FootprintInvariant() {
			continue
		}
		u, _, solvable, err := solve(c)
		if err != nil || !solvable {
			return nil, false, err
		}
		for i := range u {
			coeffs[i] += u[i]
		}
	}
	return coeffs, true, nil
}

// ContinuousRatiosData is ContinuousRatios with the cumulative spread a⁺
// (footnote 2) in place of â: the aspect-ratio coefficients for DATA
// partitioning on local-memory machines, where interior references also
// cost traffic because remote data is not dynamically replicated. The
// coefficients dominate the cache (â) coefficients componentwise and
// differ exactly when a class has interior offsets away from the median.
func ContinuousRatiosData(a *footprint.Analysis) (coeffs []float64, ok bool, err error) {
	return continuousRatios(a, footprint.Class.CumulativeSpreadCoeffs)
}

// OptimizeRect finds the rectangular partition of the nest's iteration
// space over P processors minimizing the predicted cumulative footprint.
// It enumerates every factorization of P into a processor grid (one factor
// per doall dimension), computes the induced tile extents, and scores each
// with the footprint model; ties break toward the most balanced grid.
//
// Candidates are scored by the rect scan (scanRect) with the per-class
// model terms memoized once (footprint.Evaluator) and dominated grids
// pruned by the admissible volume bound; the chosen plan is bit-identical
// to a sequential scan.
//
// The search runs under a "search.rect" span in ctx whose attributes
// record the candidate grid count and the evaluated / pruned /
// infeasible split, plus the winning grid.
func OptimizeRect(ctx context.Context, a *footprint.Analysis, procs int) (RectPlan, error) {
	_, sp := obs.StartSpan(ctx, "search.rect")
	defer sp.End()
	sizes, grids, err := rectGrids(a, procs)
	if err != nil {
		return RectPlan{}, err
	}
	reg := telemetry.Active()
	log := obs.EventsFrom(ctx)
	scan := scanRect(footprint.NewEvaluator(a), grids, sizes, !pruneDisabled.Load())
	evaluated, pruned, infeasible := scan.evaluated.Load(), scan.pruned.Load(), scan.infeasible.Load()
	reg.Counter("partition.rect.candidates").Add(evaluated)
	reg.Counter("partition.rect.pruned").Add(pruned)
	reg.Counter("partition.rect.infeasible").Add(infeasible)
	sp.SetAttr("candidates", int64(len(grids)))
	sp.SetAttr("evaluated", evaluated)
	sp.SetAttr("pruned", pruned)
	sp.SetAttr("infeasible", infeasible)

	// Deterministic reduction: fold the scored candidates in enumeration
	// order with the sequential comparison, so the winner (tie-breaks
	// included) does not depend on worker scheduling.
	var best RectPlan
	found := false
	for i := range scan.cands {
		if scan.cands[i].state != candEvaluated {
			continue
		}
		cand := scan.plan(i)
		if log != nil {
			log.Emit("partition.rect.candidate", fmt.Sprintf("grid=%v", cand.Grid), map[string]any{
				"grid":      fmt.Sprint(cand.Grid),
				"ext":       fmt.Sprint(cand.Ext),
				"footprint": cand.PredictedFootprint,
				"exactness": cand.Exactness.String(),
			})
		}
		if !found || better(cand, best) {
			best = cand
			found = true
		}
	}
	if !found {
		return RectPlan{}, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	if err := checkScored(best.PredictedFootprint); err != nil {
		return RectPlan{}, err
	}
	best.Grid, best.Ext = cloneGrid(best.Grid), cloneGrid(best.Ext)
	best.PredictedTraffic, _ = a.RectTotalTraffic(best.Ext)
	sp.SetAttr("grid", fmt.Sprint(best.Grid))
	sp.SetAttr("footprint", best.PredictedFootprint)
	if log != nil {
		fields := chosenFields(a, best)
		fields["evaluated"] = evaluated
		fields["pruned"] = pruned
		log.Emit("partition.rect.chosen", fmt.Sprintf("grid=%v", best.Grid), fields)
	}
	return best, nil
}

// rectGrids returns the iteration-space extents of a's nest and the
// processor grids a rect search over procs processors scans.
func rectGrids(a *footprint.Analysis, procs int) (sizes []int64, grids [][]int64, err error) {
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return nil, nil, fmt.Errorf("partition: nest has no doall loops")
	}
	if procs <= 0 {
		return nil, nil, fmt.Errorf("partition: need at least one processor")
	}
	return space.Extents(), factorizations(int64(procs), l), nil
}

// checkScored reports a search whose best candidate scored +Inf: the
// scorers rate a footprint beyond int64 +Inf, so every candidate
// overflowed and no plan can be ranked (nor encoded — JSON has no +Inf).
func checkScored(best float64) error {
	if math.IsInf(best, 1) {
		return fmt.Errorf("%w: every candidate's predicted footprint", intmat.ErrOverflow)
	}
	return nil
}

// gridExtents writes into ext the tile extents ⌈N_k/grid_k⌉ that grid
// induces on a space of extents sizes. It reports false, with ext partly
// written, when grid cuts a dimension into more pieces than it has
// iterations.
func gridExtents(ext, grid, sizes []int64) bool {
	for k, g := range grid {
		if g > sizes[k] {
			return false
		}
		ext[k] = ceilDiv(sizes[k], g)
	}
	return true
}

// rectCand is one grid of a rect scan: the extents it induces (a view
// into the scan's backing array) and, once evaluated, their footprint.
type rectCand struct {
	ext   []int64
	fp    float64
	ex    footprint.Exactness
	state uint8
}

// rectScan is the outcome of one rect scan: a candidate per grid, in
// enumeration order, and the evaluated / pruned / infeasible split.
type rectScan struct {
	grids                         [][]int64
	cands                         []rectCand
	evaluated, pruned, infeasible atomic.Int64
}

// scanRect scores the tile extents every grid induces on a space of
// extents sizes; the argmin (OptimizeRect) and the top-K
// (OptimizeRectTopK) both read it. With prune set, a grid whose
// admissible volume bound exceeds the best footprint scored so far is
// skipped.
//
// A nest whose every class scores in closed form (RectClosedForm) is
// scanned inline in enumeration order, where a candidate costs less than
// a hand-off to the worker pool; any other nest scores on the pool. One
// backing array holds every grid's extents, and the inline scan reuses
// one scratch buffer for the model's pair bounds, so it allocates nothing
// per candidate.
func scanRect(ev *footprint.Evaluator, grids [][]int64, sizes []int64, prune bool) *rectScan {
	l := len(sizes)
	s := &rectScan{grids: grids, cands: make([]rectCand, len(grids))}
	backing := make([]int64, len(grids)*l)
	bound := newMinBound()
	score := func(i int, scratch []int64) {
		c := &s.cands[i]
		ext := backing[i*l : (i+1)*l : (i+1)*l]
		if !gridExtents(ext, grids[i], sizes) {
			s.infeasible.Add(1)
			return
		}
		c.ext = ext
		if prune && ev.RectLowerBound(ext) > bound.value()+betterEps {
			c.state = candPruned
			s.pruned.Add(1)
			return
		}
		c.fp, c.ex = ev.RectTotalFootprintScratch(ext, scratch)
		c.state = candEvaluated
		s.evaluated.Add(1)
		bound.observe(c.fp)
	}
	if ev.RectClosedForm() {
		scratch := make([]int64, l)
		for i := range grids {
			score(i, scratch)
		}
	} else {
		forEachCandidate(len(grids), func(i int) { score(i, nil) })
	}
	return s
}

// plan is candidate i as a RectPlan whose Grid and Ext alias the scan's
// storage; clone both before the plan leaves the search.
func (s *rectScan) plan(i int) RectPlan {
	c := &s.cands[i]
	return RectPlan{Grid: s.grids[i], Ext: c.ext, PredictedFootprint: c.fp, Exactness: c.ex}
}

// chosenFields assembles the decision-trace payload for a winning
// rectangular plan: the grid and extents plus the per-class footprint cost
// terms the objective summed — |det LG| (the volume term of Theorems 2/4),
// the spread â, and each class's predicted footprint at the chosen extents.
func chosenFields(a *footprint.Analysis, p RectPlan) map[string]any {
	fields := map[string]any{
		"grid":      fmt.Sprint(p.Grid),
		"ext":       fmt.Sprint(p.Ext),
		"footprint": p.PredictedFootprint,
		"traffic":   p.PredictedTraffic,
		"exactness": p.Exactness.String(),
	}
	t := p.Tile()
	for i, c := range a.Classes {
		key := fmt.Sprintf("class%d.%s", i, c.Array)
		if vol, ok := c.SingleFootprintVolume(t); ok {
			fields[key+".detLG"] = vol
		}
		fields[key+".spread"] = fmt.Sprint(c.Spread())
		fp, _ := c.RectFootprint(p.Ext)
		fields[key+".footprint"] = fp
		fields[key+".invariant"] = c.FootprintInvariant()
	}
	return fields
}

// better orders candidate plans: lower footprint wins; ties go to the
// more balanced grid (smaller max/min factor), then lexicographic.
func better(a, b RectPlan) bool {
	const eps = betterEps
	if a.PredictedFootprint < b.PredictedFootprint-eps {
		return true
	}
	if a.PredictedFootprint > b.PredictedFootprint+eps {
		return false
	}
	if s, t := spreadOf(a.Grid), spreadOf(b.Grid); s != t {
		return s < t
	}
	for k := range a.Grid {
		if a.Grid[k] != b.Grid[k] {
			return a.Grid[k] < b.Grid[k]
		}
	}
	return false
}

func spreadOf(grid []int64) int64 {
	mn, mx := grid[0], grid[0]
	for _, g := range grid {
		if g < mn {
			mn = g
		}
		if g > mx {
			mx = g
		}
	}
	return mx - mn
}

// enumerateFactorizations enumerates all ordered factorizations of n into
// k positive factors, ascending-lexicographic by factor (the order the
// old recursive enumerator produced). The walk is iterative over divisor
// indices with the whole result preallocated in one flat backing array —
// no per-step slice copying. factorizations (factmemo.go) wraps it with
// the bounded (n, k) memo; call that instead.
func enumerateFactorizations(n int64, k int) [][]int64 {
	if k <= 0 || n <= 0 {
		return nil
	}
	divs := divisorsAsc(n)
	if k == 1 {
		return [][]int64{{n}}
	}
	count := countFactorizations(n, k, divs, map[factKey]int{})
	backing := make([]int64, 0, count*k)
	out := make([][]int64, 0, count)

	// idx[d] is the current divisor index chosen at depth d; rem[d] the
	// value left to factor at depth d. The last factor is forced to rem.
	idx := make([]int, k)
	rem := make([]int64, k)
	cur := make([]int64, k)
	rem[0] = n
	depth := 0
	for depth >= 0 {
		if depth == k-1 {
			cur[depth] = rem[depth]
			backing = append(backing, cur...)
			out = append(out, backing[len(backing)-k:])
			depth--
			continue
		}
		advanced := false
		for ; idx[depth] < len(divs); idx[depth]++ {
			d := divs[idx[depth]]
			if rem[depth]%d != 0 {
				continue
			}
			cur[depth] = d
			rem[depth+1] = rem[depth] / d
			idx[depth]++
			depth++
			idx[depth] = 0
			advanced = true
			break
		}
		if !advanced {
			depth--
		}
	}
	return out
}

// divisorsAsc returns the divisors of n in ascending order.
func divisorsAsc(n int64) []int64 {
	var lo, hi []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d != 0 {
			continue
		}
		lo = append(lo, d)
		if q := n / d; q != d {
			hi = append(hi, q)
		}
	}
	for i := len(hi) - 1; i >= 0; i-- {
		lo = append(lo, hi[i])
	}
	return lo
}

type factKey struct {
	n int64
	k int
}

// countFactorizations counts ordered factorizations of n into k positive
// factors, memoized, so the enumerator can preallocate exactly.
func countFactorizations(n int64, k int, divs []int64, memo map[factKey]int) int {
	if k == 1 {
		return 1
	}
	key := factKey{n, k}
	if c, ok := memo[key]; ok {
		return c
	}
	total := 0
	for _, d := range divs {
		if n%d == 0 {
			total += countFactorizations(n/d, k-1, divs, memo)
		}
	}
	memo[key] = total
	return total
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0 and b > 0; unlike (a+b−1)/b it
// cannot overflow for an extent near MaxInt64.
func ceilDiv(a, b int64) int64 { return a/b + min(a%b, 1) }
