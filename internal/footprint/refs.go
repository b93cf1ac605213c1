// Package footprint implements the paper's core analysis: classifying
// array references into uniformly intersecting sets (Definitions 4–6),
// computing spread vectors (Definition 8 and the data-partitioning
// cumulative spread of footnote 2), and modeling the size of the
// cumulative data footprint of a loop tile (Equation 2, Theorems 1–5).
//
// The analytic size models are validated against exact enumeration (also
// provided here) in the package tests and in the paper-reproduction
// benchmarks.
package footprint

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"looppart/internal/intmat"
	"looppart/internal/loopir"
)

// Ref is one distinct affine reference (G, a) to an array, in the paper's
// row-vector form g(i) = i·G + a (Equation 1). Multiple textual
// occurrences of the same (array, G, a) triple are merged; Reads/Writes
// count occurrences by role.
type Ref struct {
	Array  string
	G      intmat.Mat
	A      []int64
	Reads  int
	Writes int
	Atomic bool // at least one occurrence is a synchronizing reference
}

// String renders the reference as Array(G, a).
func (r Ref) String() string {
	return fmt.Sprintf("%s(G=%v, a=%v)", r.Array, r.G, r.A)
}

// Class is one uniformly intersecting set of references: same array, same
// G, and pairwise intersecting footprints (offset differences on the row
// lattice of G).
type Class struct {
	Array string
	G     intmat.Mat // the shared reference matrix (l×d), original columns
	Refs  []Ref      // members, in source order

	// Reduced is G restricted to a maximal set of linearly independent
	// columns (§3.4.1). Footprint size models operate on the reduction.
	Reduced Reduction
}

// Reduction carries the column reduction of a reference matrix.
type Reduction struct {
	Cols []int      // indices of the kept columns of G
	G    intmat.Mat // l × len(Cols), the kept columns
}

// Project maps a full-dimension data vector onto the kept columns.
func (r Reduction) Project(v []int64) []int64 {
	out := make([]int64, len(r.Cols))
	for k, c := range r.Cols {
		out[k] = v[c]
	}
	return out
}

// NumRefs returns the number of distinct references in the class.
func (c Class) NumRefs() int { return len(c.Refs) }

// HasWrite reports whether any member writes (relevant for coherence:
// read-only classes generate no invalidations).
func (c Class) HasWrite() bool {
	for _, r := range c.Refs {
		if r.Writes > 0 {
			return true
		}
	}
	return false
}

// Spread returns the spread vector â (Definition 8): per data dimension,
// the max minus the min of the member offsets.
func (c Class) Spread() []int64 {
	d := len(c.Refs[0].A)
	spread := make([]int64, d)
	for k := 0; k < d; k++ {
		mn, mx := c.Refs[0].A[k], c.Refs[0].A[k]
		for _, r := range c.Refs[1:] {
			if r.A[k] < mn {
				mn = r.A[k]
			}
			if r.A[k] > mx {
				mx = r.A[k]
			}
		}
		spread[k] = mx - mn
	}
	return spread
}

// CumulativeSpread returns a⁺ (footnote 2), the data-partitioning variant:
// per dimension, the sum of absolute deviations from the median offset.
// With local memory instead of caches, data from other memory modules is
// not dynamically replicated, so every member's deviation costs traffic,
// not just the extremes.
func (c Class) CumulativeSpread() []int64 {
	d := len(c.Refs[0].A)
	out := make([]int64, d)
	for k := 0; k < d; k++ {
		vals := make([]int64, len(c.Refs))
		for i, r := range c.Refs {
			vals[i] = r.A[k]
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		med := vals[len(vals)/2]
		var sum int64
		for _, v := range vals {
			if v >= med {
				sum += v - med
			} else {
				sum += med - v
			}
		}
		out[k] = sum
	}
	return out
}

// String renders the class compactly.
func (c Class) String() string {
	parts := make([]string, len(c.Refs))
	for i, r := range c.Refs {
		parts[i] = fmt.Sprintf("%v", r.A)
	}
	return fmt.Sprintf("%s: G=%v offsets={%s}", c.Array, c.G, strings.Join(parts, " "))
}

// Analysis is the classified reference structure of a loop nest.
type Analysis struct {
	Nest    *loopir.Nest
	Vars    []string // doall variables, outermost first (the l dimensions)
	Classes []Class
}

// Analyze extracts the affine references of the nest's body over its doall
// variables and groups them into uniformly intersecting classes.
//
// Two references are placed in the same class iff they name the same
// array, are uniformly generated (identical G, Definition 5), and
// intersect (Definition 4) — which for uniformly generated references
// holds exactly when the offset difference lies on the row lattice of G
// (the condition behind Theorem 3). Lattice membership is an equivalence
// relation, so the classes are well defined.
//
// References whose subscripts involve a sequential (doseq) loop variable
// are rejected: their footprints move between epochs and the framework
// does not model them.
func Analyze(n *loopir.Nest) (*Analysis, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	vars := n.DoallVars()
	seq := map[string]bool{}
	for _, l := range n.SeqLoops() {
		seq[l.Var] = true
	}

	// Collect distinct references.
	var refs []*Ref
	index := map[string]*Ref{}
	for _, acc := range n.Accesses() {
		for _, sub := range acc.Ref.Subs {
			for v := range sub.Coef {
				if seq[v] {
					return nil, fmt.Errorf("footprint: reference %s uses sequential loop variable %q in a subscript", acc.Ref, v)
				}
			}
		}
		g, a, err := acc.Ref.Affine(vars)
		if err != nil {
			return nil, err
		}
		key := acc.Ref.Array + "|" + g.String() + "|" + vecKey(a)
		r, ok := index[key]
		if !ok {
			r = &Ref{Array: acc.Ref.Array, G: g, A: a}
			index[key] = r
			refs = append(refs, r)
		}
		if acc.Write {
			r.Writes++
		} else {
			r.Reads++
		}
		if acc.Atomic {
			r.Atomic = true
		}
	}

	// Group into uniformly generated sets, then split by lattice cosets.
	var classes []Class
	used := make([]bool, len(refs))
	for i, ri := range refs {
		if used[i] {
			continue
		}
		members := []Ref{*ri}
		used[i] = true
		for j := i + 1; j < len(refs); j++ {
			rj := refs[j]
			if used[j] || rj.Array != ri.Array || !rj.G.Equal(ri.G) {
				continue
			}
			meets, err := Intersecting(ri.G, ri.A, rj.A)
			if err != nil {
				return nil, err
			}
			if meets {
				members = append(members, *rj)
				used[j] = true
			}
		}
		c, err := newClass(ri.Array, ri.G, members)
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
	}
	return &Analysis{Nest: n, Vars: vars, Classes: classes}, nil
}

// Intersecting implements Definition 4 for uniformly generated references:
// g₁(i₁) = g₂(i₂) for some integer iteration points iff a₂ − a₁ is an
// integer combination of the rows of G. (The iteration space is treated as
// unbounded here, the paper's working assumption that tile sizes dominate
// offset spreads; bounded-tile intersection is Theorem 3, in package
// lattice.) An offset difference or lattice elimination beyond int64 is
// an error wrapping intmat.ErrOverflow.
func Intersecting(g intmat.Mat, a1, a2 []int64) (bool, error) {
	diff := make([]int64, len(a1))
	for k := range a1 {
		d, ok := intmat.CheckedAdd(a2[k], -a1[k])
		if !ok || a1[k] == math.MinInt64 {
			return false, fmt.Errorf("%w: offset difference %d − %d", intmat.ErrOverflow, a2[k], a1[k])
		}
		diff[k] = d
	}
	return intmat.InRowLattice(g, diff)
}

// NewClass assembles a class from explicit members (all sharing G),
// computing the §3.4.1 column reduction. Analyze is the normal entry
// point; NewClass serves synthetic classes in tools and experiments.
// The members are assumed pairwise intersecting; no lattice check is
// performed here. The column reduction's elimination can overflow; that
// is an error wrapping intmat.ErrOverflow.
func NewClass(array string, g intmat.Mat, members []Ref) (Class, error) {
	return newClass(array, g, members)
}

func newClass(array string, g intmat.Mat, members []Ref) (Class, error) {
	// §3.4.1: drop zero columns (Example 1), then keep a maximal set of
	// linearly independent columns (Example 7).
	nz := g.NonZeroCols()
	indep, err := g.SelectCols(nz).MaxIndependentCols()
	if err != nil {
		return Class{}, err
	}
	cols := make([]int, len(indep))
	for k, idx := range indep {
		cols[k] = nz[idx]
	}
	return Class{Array: array, G: g, Refs: members, Reduced: Reduction{Cols: cols, G: g.SelectCols(cols)}}, nil
}

// UniformlyGenerated implements Definition 5 for two extracted references.
func UniformlyGenerated(r1, r2 Ref) bool {
	return r1.Array == r2.Array && r1.G.Equal(r2.G)
}

// UniformlyIntersecting implements Definition 6.
func UniformlyIntersecting(r1, r2 Ref) (bool, error) {
	if !UniformlyGenerated(r1, r2) {
		return false, nil
	}
	return Intersecting(r1.G, r1.A, r2.A)
}

func vecKey(v []int64) string {
	var b strings.Builder
	for _, x := range v {
		fmt.Fprintf(&b, "%d,", x)
	}
	return b.String()
}
