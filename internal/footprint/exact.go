package footprint

import (
	"math"
	"slices"
	"sort"
	"strings"

	"looppart/internal/intmat"
	"looppart/internal/layout"
)

// Exact footprint computation by enumeration (Definition 3 applied
// literally): map every iteration point of a tile through every reference
// and count distinct data elements. This is the ground truth the analytic
// models are validated against, and the fallback when no closed form
// applies (§3.8's hard cases).

// ExactClassFootprint returns |∪_r F(r)| over the class members for the
// given iteration points, using the full (unreduced) G.
func ExactClassFootprint(c Class, iterPts [][]int64) int64 {
	return ExactClassFootprintFunc(c, func(yield func(p []int64) bool) {
		for _, p := range iterPts {
			if !yield(p) {
				return
			}
		}
	})
}

// ExactClassFootprintFunc is ExactClassFootprint over a streamed point
// source: forEach must call yield once per iteration point and stop when
// yield returns false. The point slice may be reused between calls: each
// point's image p·G is buffered instead, and the buffer is sorted and
// deduplicated whenever it doubles past compactAt images, so memory grows
// with the number of distinct images, not of points. A class that
// projects (G with fewer columns than the nest has loops) maps many points
// to one image; one that does not keeps one image per point. This is the
// enumeration path for tiles too large to materialize (see
// SetEnumerationBudget).
func ExactClassFootprintFunc(c Class, forEach func(yield func(p []int64) bool)) int64 {
	cr := classRows{m: c.G.Cols(), refs: c.Refs, dedupAt: compactAt}
	forEach(func(p []int64) bool {
		n := len(cr.rows)
		cr.rows = slices.Grow(cr.rows, cr.m)[:n+cr.m]
		c.G.MulVecInto(p, cr.rows[n:])
		if cr.points++; cr.points >= cr.dedupAt {
			cr.dedup()
			cr.dedupAt = max(compactAt, 2*cr.points)
		}
		return true
	})
	return countElements([]classRows{cr})
}

// compactAt is the number of buffered images at which
// ExactClassFootprintFunc first deduplicates them. Smaller tiles, the
// search's usual case, never pay for the sort.
const compactAt = 1 << 12

// ExactArrayFootprint returns the number of distinct elements of one array
// touched by the iteration points, across ALL classes referencing it
// (classes of the same array are normally disjoint — that is why they are
// separate classes — but this function does not assume it).
func (a *Analysis) ExactArrayFootprint(array string, iterPts [][]int64) int64 {
	var classes []classRows
	for _, c := range a.Classes {
		if c.Array != array {
			continue
		}
		cr := classRows{m: c.G.Cols(), points: len(iterPts), refs: c.Refs}
		cr.rows = make([]int64, cr.points*cr.m)
		for i, p := range iterPts {
			c.G.MulVecInto(p, cr.row(i))
		}
		classes = append(classes, cr)
	}
	return countElements(classes)
}

// classRows holds the images p·G of one class's iteration points, m
// entries per point: the class touches element p·G + a for each point
// and each member's offset a.
type classRows struct {
	m, points int
	rows      []int64
	refs      []Ref
	dedupAt   int // a stream's buffered images at which to deduplicate next
}

func (cr classRows) row(i int) []int64 { return cr.rows[i*cr.m : (i+1)*cr.m] }

// Len, Less and Swap order the images lexicographically, for dedup.
func (cr *classRows) Len() int           { return cr.points }
func (cr *classRows) Less(i, j int) bool { return slices.Compare(cr.row(i), cr.row(j)) < 0 }
func (cr *classRows) Swap(i, j int) {
	a, b := cr.row(i), cr.row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// dedup sorts the images and drops repeats. The elements the class
// touches are unchanged: they are the images plus the members' offsets.
func (cr *classRows) dedup() {
	sort.Sort(cr)
	n := 0
	for i := 0; i < cr.points; i++ {
		if n > 0 && slices.Equal(cr.row(i), cr.row(n-1)) {
			continue
		}
		copy(cr.row(n), cr.row(i))
		n++
	}
	cr.points, cr.rows = n, cr.rows[:n*cr.m]
}

// countElements returns the number of distinct elements the classes
// touch. Each element is keyed by one int64, its mixed-radix offset
// inside the elements' bounding box, and the keys are sorted and
// deduplicated. Only when that box does not fit in int64 — a corner, or
// the volume, overflows — does it fall back to one string key per
// element.
func countElements(classes []classRows) int64 {
	n := 0
	for _, cr := range classes {
		n += cr.points * len(cr.refs)
	}
	if n == 0 {
		return 0
	}
	lo, stride, ok := elementBox(classes)
	if !ok {
		return countElementStrings(classes)
	}
	keys := make([]int64, 0, n)
	for _, cr := range classes {
		for i := 0; i < cr.points; i++ {
			row := cr.row(i)
			for _, r := range cr.refs {
				var key int64
				for k, v := range row {
					key += (v + r.A[k] - lo[k]) * stride[k]
				}
				keys = append(keys, key)
			}
		}
	}
	slices.Sort(keys)
	return int64(len(slices.Compact(keys)))
}

// elementBox returns the lower corner of the bounding box of the elements
// p·G + a the classes touch, at least one, and the row-major strides of a
// mixed-radix numbering of that box. ok is false when a corner or the
// volume does not fit in int64, or the classes disagree on the array's
// rank. Inside a box that fits, no element coordinate, offset or key
// overflows.
func elementBox(classes []classRows) (lo, stride []int64, ok bool) {
	m := classes[0].m
	buf := make([]int64, 3*m)
	lo, hi, stride := buf[:m], buf[m:2*m], buf[2*m:]
	for k := range lo {
		lo[k], hi[k] = math.MaxInt64, math.MinInt64
	}
	for _, cr := range classes {
		if cr.m != m {
			return nil, nil, false
		}
		if cr.points == 0 || len(cr.refs) == 0 {
			continue
		}
		for k := 0; k < m; k++ {
			rlo, rhi := cr.rows[k], cr.rows[k]
			for i := k; i < len(cr.rows); i += m {
				rlo, rhi = min(rlo, cr.rows[i]), max(rhi, cr.rows[i])
			}
			alo, ahi := cr.refs[0].A[k], cr.refs[0].A[k]
			for _, r := range cr.refs[1:] {
				alo, ahi = min(alo, r.A[k]), max(ahi, r.A[k])
			}
			clo, okLo := intmat.CheckedAdd(rlo, alo)
			chi, okHi := intmat.CheckedAdd(rhi, ahi)
			if !okLo || !okHi {
				return nil, nil, false
			}
			lo[k], hi[k] = min(lo[k], clo), max(hi[k], chi)
		}
	}
	vol := int64(1)
	for k := m - 1; k >= 0; k-- {
		// hi ≥ lo, so the side's length is exact in uint64.
		diff := uint64(hi[k]) - uint64(lo[k])
		if diff >= math.MaxInt64 {
			return nil, nil, false
		}
		stride[k] = vol
		if vol, ok = intmat.CheckedMul(vol, int64(diff)+1); !ok {
			return nil, nil, false
		}
	}
	return lo, stride, true
}

// countElementStrings is countElements on one string key per element, for
// element boxes that do not fit in int64. Coordinates add with int64
// wraparound, as these keys always have.
func countElementStrings(classes []classRows) int64 {
	seen := make(map[string]struct{})
	var b strings.Builder
	for _, cr := range classes {
		for i := 0; i < cr.points; i++ {
			row := cr.row(i)
			for _, r := range cr.refs {
				b.Reset()
				for k, v := range row {
					writeInt(&b, v+r.A[k])
				}
				seen[b.String()] = struct{}{}
			}
		}
	}
	return int64(len(seen))
}

// ExactTotalFootprint sums ExactArrayFootprint over all arrays: the total
// number of distinct data elements the iteration points touch — the
// cold-miss count of a tile on an infinite cache with unit lines.
func (a *Analysis) ExactTotalFootprint(iterPts [][]int64) int64 {
	arrays := map[string]bool{}
	for _, c := range a.Classes {
		arrays[c.Array] = true
	}
	var total int64
	for arr := range arrays {
		total += a.ExactArrayFootprint(arr, iterPts)
	}
	return total
}

// ExactLineFootprint counts the distinct cache lines the iteration points
// touch under the given memory map — the line-granular analogue of
// ExactTotalFootprint (the [6]-style extension for cache lines longer
// than one element).
func (a *Analysis) ExactLineFootprint(iterPts [][]int64, mm *layout.MemoryMap) (int64, error) {
	lines := make(map[int64]struct{})
	for _, c := range a.Classes {
		for _, p := range iterPts {
			base := c.G.MulVec(p)
			idx := make([]int64, len(base))
			for _, r := range c.Refs {
				for k := range base {
					idx[k] = base[k] + r.A[k]
				}
				line, err := mm.LineOf(c.Array, idx)
				if err != nil {
					return 0, err
				}
				lines[line] = struct{}{}
			}
		}
	}
	return int64(len(lines)), nil
}

// RectFootprintLinesModel estimates the line-granular cumulative footprint
// of a rectangular tile for a class whose reduced G is the identity (the
// stencil case [6] treats): along the storage-order (last) dimension,
// extents and spreads contract by the line size; other dimensions are
// unchanged:
//
//	Π_{j<d} extⱼ · ⌈ext_d / lineSize⌉ + Σᵢ ûᵢ'·Π_{j≠i} extⱼ'
//
// where the primed quantities use the contracted last dimension and the
// last spread contracts to ⌈û_d / lineSize⌉ (a line fetches its whole
// neighborhood). ok is false when the class is not identity-reduced, in
// which case callers should fall back to ExactLineFootprint.
func (c Class) RectFootprintLinesModel(ext []int64, lineSize int64) (float64, bool) {
	gr := c.Reduced.G
	if !gr.Equal(intmat.Identity(gr.Rows())) || lineSize <= 0 {
		return 0, false
	}
	d := len(ext)
	spread := c.Reduced.Project(c.Spread())
	extL := make([]float64, d)
	spreadL := make([]float64, d)
	for k := 0; k < d; k++ {
		extL[k] = float64(ext[k])
		spreadL[k] = float64(abs64(spread[k]))
	}
	extL[d-1] = math.Ceil(float64(ext[d-1]) / float64(lineSize))
	spreadL[d-1] = math.Ceil(spreadL[d-1] / float64(lineSize))
	total := 1.0
	for _, e := range extL {
		total *= e
	}
	for i := 0; i < d; i++ {
		term := spreadL[i]
		for j := 0; j < d; j++ {
			if j != i {
				term *= extL[j]
			}
		}
		total += term
	}
	return total, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func writeInt(b *strings.Builder, v int64) {
	// Compact signed varint-ish encoding; delimiters avoid ambiguity.
	// The magnitude is taken in uint64 space: -v wraps for MinInt64 (it is
	// its own negation in int64), which would alias the key of -2^63 with
	// the key of 0 prefixed by '-' and corrupt the dedup count.
	u := uint64(v)
	if v < 0 {
		b.WriteByte('-')
		u = -u
	}
	for u >= 10 {
		b.WriteByte(byte('0' + u%10))
		u /= 10
	}
	b.WriteByte(byte('0' + u))
	b.WriteByte(',')
}
