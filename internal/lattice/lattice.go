// Package lattice implements the bounded-lattice machinery of §3.7 of the
// paper (Agarwal, Kranz, Natarajan 1993).
//
// A bounded lattice L(a₁,…,aₙ, λ₁,…,λₙ) (Definition 9) is the set of points
// Σ lᵢ·aᵢ with integer coefficients 0 ≤ lᵢ ≤ λᵢ. The footprint of a
// rectangular loop tile with respect to a reference matrix G is exactly such
// a bounded lattice with the rows of G as generators and the tile extents as
// bounds. Two results drive the partitioning analysis:
//
//   - Theorem 3: the footprints of two references in a uniformly generated
//     class intersect iff the offset difference t is a bounded-coefficient
//     integer combination of the generators.
//   - Lemma 3: the size of the union of a bounded lattice and its
//     translation by t = Σ uᵢ·aᵢ is 2·Π(λⱼ+1) − Π(λⱼ+1−|uⱼ|).
//
// Everything here is validated against brute-force enumeration in the tests.
package lattice

import (
	"fmt"
	"slices"

	"looppart/internal/intmat"
)

// Bounded is a bounded lattice: integer combinations Σ lᵢ·aᵢ of the rows of
// Gen with 0 ≤ lᵢ ≤ Bounds[i].
type Bounded struct {
	Gen    intmat.Mat // n×d generator matrix, rows are the generators
	Bounds []int64    // n coefficient bounds λᵢ ≥ 0
}

// New constructs a bounded lattice. It panics if the number of bounds does
// not match the number of generators or any bound is negative.
func New(gen intmat.Mat, bounds []int64) Bounded {
	if len(bounds) != gen.Rows() {
		panic(fmt.Sprintf("lattice: %d bounds for %d generators", len(bounds), gen.Rows()))
	}
	for i, b := range bounds {
		if b < 0 {
			panic(fmt.Sprintf("lattice: negative bound λ%d = %d", i, b))
		}
	}
	return Bounded{Gen: gen, Bounds: bounds}
}

// Dim returns the dimension of the ambient space.
func (b Bounded) Dim() int { return b.Gen.Cols() }

// NumGen returns the number of generators.
func (b Bounded) NumGen() int { return b.Gen.Rows() }

// Coordinates solves t = Σ uᵢ·aᵢ over the integers, ignoring the bounds.
// It returns the coefficient vector and true if t lies on the (unbounded)
// lattice. When the generators are linearly independent the solution is
// unique. Overflow in the elimination is an error wrapping
// intmat.ErrOverflow, as in every method here.
func (b Bounded) Coordinates(t []int64) ([]int64, bool, error) {
	return intmat.SolveIntLeftChecked(b.Gen, t)
}

// Contains reports whether the point p is an element of the bounded
// lattice, i.e. p = Σ lᵢ·aᵢ with 0 ≤ lᵢ ≤ λᵢ. For linearly independent
// generators this is a direct coordinate check; otherwise it falls back to
// bounded search over the coefficient box.
func (b Bounded) Contains(p []int64) (bool, error) {
	indep, err := intmat.IsOneToOne(b.Gen)
	if err != nil {
		return false, err
	}
	if indep {
		u, ok, err := b.Coordinates(p)
		return ok && b.inBox(u), err
	}
	// Dependent generators: enumerate the coefficient box (exact, small
	// cases only — dependent generators arise from rank-deficient G after
	// which callers normally reduce columns, so this path is rare).
	found := false
	err = b.forEachPoint(func(q []int64) bool {
		found = slices.Equal(q, p)
		return !found
	})
	return found, err
}

func (b Bounded) inBox(u []int64) bool {
	for i, ui := range u {
		if ui < 0 || ui > b.Bounds[i] {
			return false
		}
	}
	return true
}

// forEachPoint calls fn with Σ lᵢ·aᵢ for every coefficient vector of the
// box, in lexicographic order, until fn returns false. The point buffer is
// reused between calls.
func (b Bounded) forEachPoint(fn func(q []int64) bool) error {
	n := b.NumGen()
	coef := make([]int64, n)
	q := make([]int64, b.Dim())
	var rec func(k int) (bool, error)
	rec = func(k int) (bool, error) {
		if k == n {
			if err := b.Gen.MulVecInto(coef, q); err != nil {
				return false, err
			}
			return fn(q), nil
		}
		for v := int64(0); v <= b.Bounds[k]; v++ {
			coef[k] = v
			if more, err := rec(k + 1); !more || err != nil {
				return false, err
			}
		}
		coef[k] = 0
		return true, nil
	}
	_, err := rec(0)
	return err
}

// IntersectsTranslate implements Theorem 3: the bounded lattice and its
// translation by t intersect iff t = Σ uᵢ·aᵢ for integer uᵢ with
// |uᵢ| ≤ λᵢ. It returns the coordinate vector u (with signs) when the
// lattices intersect.
//
// The paper states the condition with 0 ≤ uᵢ ≤ λᵢ; a translation by a
// vector with some negative coordinates intersects symmetrically (translate
// the other lattice instead), so the implementable condition is |uᵢ| ≤ λᵢ.
func (b Bounded) IntersectsTranslate(t []int64) ([]int64, bool, error) {
	u, ok, err := b.Coordinates(t)
	if !ok {
		return nil, false, err
	}
	for i, ui := range u {
		if ui < -b.Bounds[i] || ui > b.Bounds[i] {
			return nil, false, nil
		}
	}
	return u, true, nil
}

// Points enumerates the distinct points of the bounded lattice. Intended
// for validation and small exact computations; the coefficient box is
// enumerated exhaustively and duplicate images (possible when generators
// are dependent or coincident) are deduplicated.
func (b Bounded) Points() ([]Point, error) {
	set := make(map[string]Point)
	err := b.forEachPoint(func(q []int64) bool {
		set[keyOf(q)] = slices.Clone(q)
		return true
	})
	if err != nil {
		return nil, err
	}
	pts := make([]Point, 0, len(set))
	for _, p := range set {
		pts = append(pts, p)
	}
	return pts, nil
}

// Size returns the number of distinct points, via enumeration.
func (b Bounded) Size() (int64, error) {
	pts, err := b.Points()
	return int64(len(pts)), err
}

// Point is an integer point in the data space.
type Point = []int64

func keyOf(p []int64) string {
	buf := make([]byte, 0, len(p)*9)
	for _, v := range p {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
		buf = append(buf, ',')
	}
	return string(buf)
}

// Translate returns the point set of the lattice translated by t.
func Translate(pts []Point, t []int64) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		q := make([]int64, len(p))
		for j := range p {
			q[j] = p[j] + t[j]
		}
		out[i] = q
	}
	return out
}

// UnionSize returns the exact size of the union of point sets.
func UnionSize(sets ...[]Point) int64 {
	seen := make(map[string]struct{})
	for _, s := range sets {
		for _, p := range s {
			seen[keyOf(p)] = struct{}{}
		}
	}
	return int64(len(seen))
}

// UnionSizeModel implements Lemma 3's closed form for the size of the union
// of a bounded lattice with independent generators and its translation by
// t = Σ uᵢ·aᵢ:
//
//	|L₁ ∪ L₂| = 2·Π(λⱼ+1) − Π(λⱼ+1−|uⱼ|)
//
// If any |uⱼ| exceeds λⱼ the two copies are disjoint and the union is
// 2·Π(λⱼ+1).
//
// Arithmetic saturates at MaxInt64 instead of wrapping: a saturated size
// still orders correctly against every exact one, which is all the
// optimizer's comparisons need.
func UnionSizeModel(bounds []int64, u []int64) int64 {
	all := int64(1)
	overlap := int64(1)
	disjoint := false
	for j, l := range bounds {
		all = intmat.SatMul(all, l+1)
		uj := u[j]
		if uj < 0 {
			uj = -uj
		}
		if uj > l {
			disjoint = true
		} else {
			overlap = intmat.SatMul(overlap, l+1-uj)
		}
	}
	if disjoint {
		return intmat.SatMul(2, all)
	}
	return intmat.SatAdd(intmat.SatMul(2, all), -overlap)
}

// UnionSizeLinearized is the first-order expansion of Lemma 3 used by the
// optimizer:
//
//	Π(λⱼ+1) + Σᵢ |uᵢ|·Π_{j≠i}(λⱼ+1)
//
// dropping the higher-order cross terms (the paper's ≈). It upper-bounds
// the exact union size minus the Π|uᵢ| correction. Arithmetic saturates at
// MaxInt64 (see UnionSizeModel).
func UnionSizeLinearized(bounds []int64, u []int64) int64 {
	base := int64(1)
	for _, l := range bounds {
		base = intmat.SatMul(base, l+1)
	}
	total := base
	for i, ui := range u {
		if ui < 0 {
			ui = -ui
		}
		term := int64(1)
		for j, l := range bounds {
			if j == i {
				continue
			}
			term = intmat.SatMul(term, l+1)
		}
		total = intmat.SatAdd(total, intmat.SatMul(ui, term))
	}
	return total
}
