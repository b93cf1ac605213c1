package partition

import (
	"fmt"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/telemetry"
)

// Communication-free loop partitioning in the style of Ramanujam and
// Sadayappan [7], recovered inside the paper's framework (§1.1, Example 2).
//
// A hyperplane family h·i = c partitions the iteration space into slabs.
// Two iterations i₁ ≠ i₂ touch the same datum of a class (G, {a_r}) iff
// (i₁ − i₂)·G = a_s − a_r for some member pair, i.e. the difference lies
// in the affine set  δ_rs + null_L(G)  where δ_rs is any particular
// solution and null_L(G) the left null space. The slab partition is
// communication-free iff every such difference is parallel to the slabs:
// h·δ = 0 for every particular solution and every null-space basis vector
// of every class with a write (read-only sharing costs nothing after the
// cold miss; the strict variant includes all classes).

// ConflictDirections returns a spanning set of iteration-space difference
// vectors along which data sharing occurs. Every communication-free
// hyperplane normal must be orthogonal to all of them.
//
// includeReadOnly controls whether classes without writes contribute
// (true reproduces [7]'s strict notion, which Example 2's partition a
// satisfies; false optimizes only coherence traffic).
func ConflictDirections(a *footprint.Analysis, includeReadOnly bool) [][]int64 {
	var dirs [][]int64
	for _, c := range a.Classes {
		if !includeReadOnly && !c.HasWrite() {
			continue
		}
		// Left null space of G: same-datum differences within one ref.
		for _, n := range intmat.LeftNullspaceInt(c.G) {
			dirs = append(dirs, n)
		}
		// Particular solutions for each member pair relative to the
		// first member (differences are closed under subtraction, so
		// pairs with the first member span all pairs modulo null space).
		base := c.Refs[0].A
		for _, r := range c.Refs[1:] {
			diff := make([]int64, len(base))
			for k := range diff {
				diff[k] = r.A[k] - base[k]
			}
			if delta, ok := intmat.SolveIntLeft(c.G, diff); ok {
				dirs = append(dirs, delta)
			}
		}
	}
	return nonZero(dirs)
}

func nonZero(vs [][]int64) [][]int64 {
	var out [][]int64
	for _, v := range vs {
		zero := true
		for _, x := range v {
			if x != 0 {
				zero = false
				break
			}
		}
		if !zero {
			out = append(out, v)
		}
	}
	return out
}

// CommFreeNormals returns an integer basis of hyperplane normals h with
// h·δ = 0 for every conflict direction δ. An empty result means no
// communication-free hyperplane partition exists (the [7] algorithm
// fails; the footprint optimizer still produces a minimal-traffic
// partition — the paper's Example 10 case).
func CommFreeNormals(a *footprint.Analysis, includeReadOnly bool) [][]int64 {
	dirs := ConflictDirections(a, includeReadOnly)
	l := len(a.Vars)
	if len(dirs) == 0 {
		// No sharing at all: every direction works; return the axes.
		basis := make([][]int64, l)
		for k := range basis {
			v := make([]int64, l)
			v[k] = 1
			basis[k] = v
		}
		return basis
	}
	m := intmat.FromRows(dirs)
	// h must satisfy m·hᵗ = 0.
	return intmat.RightNullspaceInt(m)
}

// SlabPlan is a communication-free (or minimal-communication) slab
// partition: the iteration space is cut into P slabs c ≤ h·i < c + w.
type SlabPlan struct {
	Normal []int64 // the hyperplane normal h
	// Width is the slab width w in units of h·i, chosen so P slabs cover
	// the iteration space.
	Width int64
	// CommFree reports whether the plan is provably communication-free.
	CommFree bool
	// base is the minimum of h·i over the iteration space, so slab
	// indices start at zero.
	base int64
}

func (s SlabPlan) String() string {
	return fmt.Sprintf("slabs normal=%v width=%d commfree=%v", s.Normal, s.Width, s.CommFree)
}

// SlabOf returns the slab index of iteration p.
func (s SlabPlan) SlabOf(p []int64, procs int) int {
	v := int64(0)
	for k := range p {
		v += s.Normal[k] * p[k]
	}
	idx := floorDivInt(v-s.base, s.Width)
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(procs) {
		idx = int64(procs) - 1
	}
	return int(idx)
}

// SlabPlanFor reconstructs a SlabPlan from its serialized fields (normal,
// width, comm-free flag) and the iteration space it partitions. The base
// — the minimum of h·i over the space, which anchors slab indices at
// zero — is not serialized because it is derivable; recomputing it here
// keeps SlabOf identical to the plan the search produced.
func SlabPlanFor(normal []int64, width int64, commFree bool, lo, hi []int64) (SlabPlan, error) {
	if len(normal) == 0 || len(normal) != len(lo) || len(lo) != len(hi) {
		return SlabPlan{}, fmt.Errorf("partition: slab normal of dimension %d for a %d-D space", len(normal), len(lo))
	}
	if width <= 0 {
		return SlabPlan{}, fmt.Errorf("partition: non-positive slab width %d", width)
	}
	base, _ := hyperplaneRange(normal, lo, hi)
	return SlabPlan{Normal: normal, Width: width, CommFree: commFree, base: base}, nil
}

// FindCommFree looks for a communication-free slab partition of the
// analysis over P processors. It returns ok = false when none exists.
func FindCommFree(a *footprint.Analysis, procs int, includeReadOnly bool) (SlabPlan, bool) {
	reg := telemetry.Active()
	normals := CommFreeNormals(a, includeReadOnly)
	if len(normals) == 0 {
		if reg.Recording() {
			reg.Emit("partition.commfree.none", "no conflict-orthogonal normal", nil)
		}
		return SlabPlan{}, false
	}
	// Prefer the normal giving the widest slabs (most h·i levels per
	// processor → best load balance granularity).
	space := boundsOfAnalysis(a)
	best := SlabPlan{}
	found := false
	for _, h := range normals {
		lo, hi := hyperplaneRange(h, space.Lo, space.Hi)
		levels := hi - lo + 1
		if reg.Recording() {
			reg.Emit("partition.commfree.candidate", fmt.Sprintf("normal=%v", h), map[string]any{
				"normal":   fmt.Sprint(h),
				"levels":   levels,
				"feasible": levels >= int64(procs),
			})
		}
		if levels < int64(procs) {
			continue // cannot give every processor work
		}
		w := ceilDiv(levels, int64(procs))
		plan := SlabPlan{Normal: h, Width: w, CommFree: true, base: lo}
		if !found || plan.Width > best.Width {
			best = plan
			found = true
		}
	}
	if found && reg.Recording() {
		reg.Emit("partition.commfree.chosen", fmt.Sprintf("normal=%v", best.Normal), map[string]any{
			"normal": fmt.Sprint(best.Normal),
			"width":  best.Width,
		})
	}
	return best, found
}

func boundsOfAnalysis(a *footprint.Analysis) boundsLoHi {
	loops := a.Nest.DoallLoops()
	b := boundsLoHi{Lo: make([]int64, len(loops)), Hi: make([]int64, len(loops))}
	for k, l := range loops {
		b.Lo[k] = l.Lo
		b.Hi[k] = l.Hi
	}
	return b
}

type boundsLoHi struct{ Lo, Hi []int64 }

// hyperplaneRange returns the min and max of h·i over the box [lo, hi].
func hyperplaneRange(h, lo, hi []int64) (int64, int64) {
	var mn, mx int64
	for k := range h {
		a := h[k] * lo[k]
		b := h[k] * hi[k]
		if a > b {
			a, b = b, a
		}
		mn += a
		mx += b
	}
	return mn, mx
}

func floorDivInt(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
