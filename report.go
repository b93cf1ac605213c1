package looppart

import (
	"fmt"
	"strings"

	"looppart/internal/partition"
	"looppart/internal/tile"
)

// Report summarizes the reference analysis of a program in the paper's
// vocabulary: one entry per uniformly intersecting class with its G
// matrix, offsets, spread vectors, and Theorem 4 coefficients.
type Report struct {
	Vars    []string
	Classes []ClassReport
	// RectCoeffs are the summed per-dimension traffic coefficients; the
	// optimal rectangular extents are proportional to them (when a
	// closed form exists).
	RectCoeffs []float64
	HasClosed  bool
	// DataCoeffs are the a⁺-based coefficients for data partitioning on
	// local-memory machines (footnote 2); they dominate RectCoeffs.
	DataCoeffs    []float64
	HasClosedData bool
	CommFreeDirs  [][]int64
}

// ClassReport describes one uniformly intersecting class.
type ClassReport struct {
	Array            string
	G                string
	Offsets          [][]int64
	Spread           []int64
	CumulativeSpread []int64
	// Coeffs is the |u| decomposition of the spread over the reduced G
	// rows (empty when no closed form applies).
	Coeffs []float64
	// Invariant reports a shape-invariant footprint (excluded from
	// optimization, Example 8's array A).
	Invariant bool
	HasWrite  bool
}

// Report computes the analysis summary. A Theorem 4 decomposition or
// comm-free elimination beyond int64 is an error wrapping
// intmat.ErrOverflow.
func (pr *Program) Report() (Report, error) {
	a := pr.Analysis
	r := Report{Vars: a.Vars}
	for _, c := range a.Classes {
		cr := ClassReport{
			Array:            c.Array,
			G:                c.G.String(),
			Spread:           c.Spread(),
			CumulativeSpread: c.CumulativeSpread(),
			Invariant:        c.FootprintInvariant(),
			HasWrite:         c.HasWrite(),
		}
		for _, ref := range c.Refs {
			cr.Offsets = append(cr.Offsets, ref.A)
		}
		u, _, ok, err := c.SpreadCoeffs()
		if err != nil {
			return Report{}, err
		}
		if ok {
			cr.Coeffs = u
		}
		r.Classes = append(r.Classes, cr)
	}
	var err error
	if r.RectCoeffs, r.HasClosed, err = partition.ContinuousRatios(a); err != nil {
		return Report{}, err
	}
	if r.DataCoeffs, r.HasClosedData, err = partition.ContinuousRatiosData(a); err != nil {
		return Report{}, err
	}
	if r.CommFreeDirs, err = partition.CommFreeNormals(a, true); err != nil {
		return Report{}, err
	}
	return r, nil
}

// String renders the report for the CLI.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "doall variables: %s\n", strings.Join(r.Vars, ", "))
	fmt.Fprintf(&b, "uniformly intersecting classes: %d\n", len(r.Classes))
	for i, c := range r.Classes {
		fmt.Fprintf(&b, "  class %d: array %s, %d refs, G=%s\n", i+1, c.Array, len(c.Offsets), c.G)
		fmt.Fprintf(&b, "    offsets: %v\n", c.Offsets)
		fmt.Fprintf(&b, "    spread â=%v  cumulative a+=%v\n", c.Spread, c.CumulativeSpread)
		switch {
		case c.Invariant:
			fmt.Fprintf(&b, "    footprint is shape-invariant (excluded from optimization)\n")
		case len(c.Coeffs) > 0:
			fmt.Fprintf(&b, "    Theorem 4 coefficients |u| = %v\n", c.Coeffs)
		default:
			fmt.Fprintf(&b, "    no closed form; enumeration fallback\n")
		}
	}
	if r.HasClosed {
		fmt.Fprintf(&b, "optimal rect extents proportional to %v\n", r.RectCoeffs)
	}
	if r.HasClosedData {
		fmt.Fprintf(&b, "data-partitioning (a+) extents proportional to %v\n", r.DataCoeffs)
	}
	if len(r.CommFreeDirs) > 0 {
		fmt.Fprintf(&b, "communication-free normals: %v\n", r.CommFreeDirs)
	} else {
		fmt.Fprintf(&b, "no communication-free partition exists\n")
	}
	return b.String()
}

// Space returns the doall iteration-space bounds of the program.
func (pr *Program) Space() tile.Bounds {
	return tile.BoundsOf(pr.Nest)
}
