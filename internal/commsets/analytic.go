package commsets

import (
	"fmt"
	"sort"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
)

// The analytic engine. For a rectangular tiling anchored at the space's
// lower corner and a class whose G is one-to-one, every reference's
// footprint over a tile is the translate of one bounded lattice: element
// identity reduces to the lattice coefficient vector m, with reference x
// at iteration i touching m = i + u_x where a_x − a_0 = u_x·G (solved
// exactly over the integers by intmat's HNF machinery). Tile t's
// coverage under reference x is then the iteration box of t shifted by
// u_x, and every transfer set is a union of box intersections counted by
// coordinate compression — no enumeration of iterations or data.

// box is an inclusive integer box; empty when any hi < lo.
type box struct{ lo, hi []int64 }

func (b box) empty() bool {
	for k := range b.lo {
		if b.hi[k] < b.lo[k] {
			return true
		}
	}
	return false
}

func (b box) shift(u []int64) box {
	lo := make([]int64, len(b.lo))
	hi := make([]int64, len(b.hi))
	for k := range lo {
		lo[k] = b.lo[k] + u[k]
		hi[k] = b.hi[k] + u[k]
	}
	return box{lo, hi}
}

func intersectBox(a, b box) box {
	lo := make([]int64, len(a.lo))
	hi := make([]int64, len(a.hi))
	for k := range lo {
		lo[k] = max64(a.lo[k], b.lo[k])
		hi[k] = min64(a.hi[k], b.hi[k])
	}
	return box{lo, hi}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// maxAnalyticTiles bounds the grid the analytic engine will lay out;
// plans built by this repository keep tiles ≤ procs, so the bound only
// rejects degenerate hand-made specs (which fall back to the scan
// engine).
const maxAnalyticTiles = 1 << 16

// rectProcBoxes lays out the clipped tile boxes of a rectangular tiling,
// grouped by processor. Tile numbering must reproduce tile.Assign: tiles
// in lexicographic (row-major) grid order, dealt round-robin.
func rectProcBoxes(spec Spec) ([][]box, error) {
	if spec.Tile == nil || !spec.Tile.IsRect() {
		return nil, fmt.Errorf("commsets: not a rectangular tiling")
	}
	ext := spec.Tile.Extents()
	d := spec.Space.Dim()
	if len(ext) != d {
		return nil, fmt.Errorf("commsets: tile dimension %d != space dimension %d", len(ext), d)
	}
	grid := make([]int64, d)
	tiles := int64(1)
	for k := 0; k < d; k++ {
		if ext[k] <= 0 {
			return nil, fmt.Errorf("commsets: non-positive tile extent %d", ext[k])
		}
		n := spec.Space.Hi[k] - spec.Space.Lo[k] + 1
		grid[k] = (n + ext[k] - 1) / ext[k]
		tiles *= grid[k]
		if tiles > maxAnalyticTiles {
			return nil, fmt.Errorf("commsets: %d tiles exceed the analytic grid bound", tiles)
		}
	}
	boxes := make([][]box, spec.Procs)
	coord := make([]int64, d)
	for idx := int64(0); idx < tiles; idx++ {
		rem := idx
		for k := d - 1; k >= 0; k-- {
			coord[k] = rem % grid[k]
			rem /= grid[k]
		}
		b := box{lo: make([]int64, d), hi: make([]int64, d)}
		for k := 0; k < d; k++ {
			b.lo[k] = spec.Space.Lo[k] + coord[k]*ext[k]
			b.hi[k] = min64(b.lo[k]+ext[k]-1, spec.Space.Hi[k])
		}
		proc := int(idx % int64(spec.Procs))
		boxes[proc] = append(boxes[proc], b)
	}
	return boxes, nil
}

// classRefs resolves the class members' lattice offsets u_x and their
// roles. Fails (→ scan engine) if any offset is not on the row lattice,
// which cannot happen for a well-formed class, or its elimination
// overflows int64.
type classRef struct {
	u      []int64
	writer bool
	reader bool
	mult   int // write multiplicity per iteration
}

func resolveClassRefs(c *footprint.Class) ([]classRef, error) {
	out := make([]classRef, len(c.Refs))
	base := c.Refs[0].A
	for i := range c.Refs {
		r := &c.Refs[i]
		diff := make([]int64, len(base))
		for k := range diff {
			diff[k] = r.A[k] - base[k]
		}
		u, ok, err := intmat.SolveIntLeftChecked(c.G, diff)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("commsets: offset of %s not on the class lattice", r)
		}
		mult := r.Writes
		if r.Atomic && mult == 0 {
			mult = 1
		}
		out[i] = classRef{u: u, writer: isWriter(r), reader: isReader(r), mult: mult}
	}
	return out, nil
}

// analyzeClassBoxes runs the analytic engine for one class. Returns the
// class decomposition and the number of compression cells visited.
func analyzeClassBoxes(c *footprint.Class, ci int, boxes [][]box, procs int, materialize bool, a *Analysis) (ClassComm, int64, error) {
	refs, err := resolveClassRefs(c)
	if err != nil {
		return ClassComm{}, 0, err
	}
	cc := ClassComm{Array: c.Array, Class: ci, Method: "analytic"}

	var writers, readers []int
	for i := range refs {
		if refs[i].writer {
			writers = append(writers, i)
			// The same reference occurring as a write more than once per
			// iteration writes its element more than once per epoch.
			if refs[i].mult > 1 {
				a.UniqueWrite = false
			}
		}
		if refs[i].reader {
			readers = append(readers, i)
		}
	}
	if len(writers) == 0 || len(readers) == 0 {
		// Still need the unique-write check across writers below when
		// there are ≥2 writers and no readers.
		if len(writers) > 1 {
			checkUniqueWriteBoxes(refs, writers, boxes, a)
		}
		if materialize && len(writers) > 0 {
			if err := materializeOwned(&cc, c, refs, writers, boxes, procs); err != nil {
				return ClassComm{}, 0, err
			}
		}
		return cc, 0, nil
	}

	checkUniqueWriteBoxes(refs, writers, boxes, a)

	// backward[w][r]: the reader's iteration runs lexicographically after
	// the producing iteration of the same epoch (j = i + u_r − u_w ≺ i).
	backward := make(map[[2]int]bool)
	for _, w := range writers {
		for _, r := range readers {
			delta := make([]int64, len(refs[w].u))
			for k := range delta {
				delta[k] = refs[r].u[k] - refs[w].u[k]
			}
			if lexNeg(delta) {
				backward[[2]int{w, r}] = true
			}
		}
	}

	var cells int64
	for p := 0; p < procs; p++ {
		if len(boxes[p]) == 0 {
			continue
		}
		for q := 0; q < procs; q++ {
			if q == p || len(boxes[q]) == 0 {
				continue
			}
			var pieces []box
			for _, w := range writers {
				for _, r := range readers {
					for _, bp := range boxes[p] {
						for _, bq := range boxes[q] {
							piece := intersectBox(bp.shift(refs[w].u), bq.shift(refs[r].u))
							if piece.empty() {
								continue
							}
							pieces = append(pieces, piece)
							if backward[[2]int{w, r}] {
								a.BackwardRAW = true
							}
						}
					}
				}
			}
			if len(pieces) == 0 {
				continue
			}
			words, n, elems, err := unionBoxes(pieces, materialize)
			if err != nil {
				return ClassComm{}, 0, err
			}
			cells += n
			if words == 0 {
				continue
			}
			t := Transfer{From: p, To: q, Words: words}
			if materialize {
				if t.Elems, err = mapElems(c, elems); err != nil {
					return ClassComm{}, 0, err
				}
			}
			cc.Transfers = append(cc.Transfers, t)
			cc.Words += words
		}
	}
	sort.Slice(cc.Transfers, func(i, j int) bool {
		if cc.Transfers[i].From != cc.Transfers[j].From {
			return cc.Transfers[i].From < cc.Transfers[j].From
		}
		return cc.Transfers[i].To < cc.Transfers[j].To
	})
	if materialize {
		if err := materializeOwned(&cc, c, refs, writers, boxes, procs); err != nil {
			return ClassComm{}, 0, err
		}
	}
	return cc, cells, nil
}

// checkUniqueWriteBoxes clears Analysis.UniqueWrite if two distinct
// (tile, write reference) instances cover a common element.
func checkUniqueWriteBoxes(refs []classRef, writers []int, boxes [][]box, a *Analysis) {
	if !a.UniqueWrite {
		return
	}
	type wb struct {
		b   box
		ref int
	}
	var all []wb
	for p := range boxes {
		for _, b := range boxes[p] {
			for _, w := range writers {
				all = append(all, wb{b.shift(refs[w].u), w})
			}
		}
	}
	for i := 0; i < len(all) && a.UniqueWrite; i++ {
		for j := i + 1; j < len(all); j++ {
			if !intersectBox(all[i].b, all[j].b).empty() {
				a.UniqueWrite = false
				break
			}
		}
	}
}

// materializeOwned records each processor's write coverage (union of its
// write boxes), mapped to data coordinates.
func materializeOwned(cc *ClassComm, c *footprint.Class, refs []classRef, writers []int, boxes [][]box, procs int) error {
	cc.owned = make([][]Elem, procs)
	for p := 0; p < procs; p++ {
		var pieces []box
		for _, b := range boxes[p] {
			for _, w := range writers {
				pieces = append(pieces, b.shift(refs[w].u))
			}
		}
		if len(pieces) == 0 {
			continue
		}
		_, _, elems, err := unionBoxes(pieces, true)
		if err != nil {
			return err
		}
		if cc.owned[p], err = mapElems(c, elems); err != nil {
			return err
		}
	}
	return nil
}

// mapElems maps coefficient-space vectors m to data coordinates
// d = m·G + a_0 (the row-vector product of the paper's convention); a
// coordinate beyond int64 is an error wrapping intmat.ErrOverflow.
func mapElems(c *footprint.Class, ms [][]int64) ([]Elem, error) {
	out := make([]Elem, len(ms))
	for i, m := range ms {
		d, err := dataCoords(c.G, c.Refs[0].A, m)
		if err != nil {
			return nil, err
		}
		out[i] = Elem{Array: c.Array, Index: d}
	}
	return out, nil
}

// unionBoxes counts (and optionally enumerates) the union of integer
// boxes exactly via coordinate compression: cut every dimension at the
// box boundaries; each resulting cell is entirely inside or outside
// every box, so membership is a single point test and the union size is
// the sum of member-cell volumes. Returns the count, the number of
// cells visited, and (if materialize) the points.
func unionBoxes(pieces []box, materialize bool) (int64, int64, [][]int64, error) {
	d := len(pieces[0].lo)
	if d == 0 {
		// A zero-dimensional space has a single point.
		return 1, 1, [][]int64{{}}, nil
	}
	cuts := make([][]int64, d)
	for k := 0; k < d; k++ {
		set := map[int64]struct{}{}
		for _, p := range pieces {
			set[p.lo[k]] = struct{}{}
			set[p.hi[k]+1] = struct{}{}
		}
		for v := range set {
			cuts[k] = append(cuts[k], v)
		}
		sort.Slice(cuts[k], func(i, j int) bool { return cuts[k][i] < cuts[k][j] })
	}
	idx := make([]int, d)
	pt := make([]int64, d)
	var total, cells int64
	var elems [][]int64
	for {
		cells++
		ok := true
		var vol int64 = 1
		for k := 0; k < d; k++ {
			if idx[k] >= len(cuts[k])-1 {
				ok = false
				break
			}
			pt[k] = cuts[k][idx[k]]
			w, m := intmat.CheckedMul(vol, cuts[k][idx[k]+1]-cuts[k][idx[k]])
			if !m {
				return 0, 0, nil, fmt.Errorf("commsets: transfer-set size overflows int64")
			}
			vol = w
		}
		if ok && inAnyBox(pt, pieces) {
			var m bool
			total, m = intmat.CheckedAdd(total, vol)
			if !m {
				return 0, 0, nil, fmt.Errorf("commsets: transfer-set size overflows int64")
			}
			if materialize {
				elems = appendCellPoints(elems, cuts, idx)
			}
		}
		k := d - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(cuts[k])-1 {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return total, cells, elems, nil
		}
	}
}

func inAnyBox(pt []int64, pieces []box) bool {
piece:
	for _, p := range pieces {
		for k := range pt {
			if pt[k] < p.lo[k] || pt[k] > p.hi[k] {
				continue piece
			}
		}
		return true
	}
	return false
}

func appendCellPoints(elems [][]int64, cuts [][]int64, idx []int) [][]int64 {
	d := len(idx)
	cur := make([]int64, d)
	for k := 0; k < d; k++ {
		cur[k] = cuts[k][idx[k]]
	}
	for {
		elems = append(elems, append([]int64(nil), cur...))
		k := d - 1
		for k >= 0 {
			cur[k]++
			if cur[k] < cuts[k][idx[k]+1] {
				break
			}
			cur[k] = cuts[k][idx[k]]
			k--
		}
		if k < 0 {
			return elems
		}
	}
}
