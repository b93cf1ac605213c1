// Package tile implements iteration-space tiles and tilings (§3.2 of the
// paper).
//
// A hyperparallelepiped tile is summarized by the matrix L whose rows are
// the tile's edge vectors (Definition 2: L = Λ(H⁻¹)ᵗ, where the rows of H
// are the bounding hyperplane normals and Λ carries the extents). The tile
// at the origin is {x = Σ aᵢ·Lᵢ, 0 ≤ aᵢ < 1} and the whole partition is the
// set of its integer translates by L's row lattice — homogeneous tiling, so
// specifying the tile at the origin specifies the partition (Figure 4).
//
// Rectangular tiles (H = I, L = Λ) are the common special case; they carry
// exact point counts (Proposition 3) and simple code generation.
package tile

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"looppart/internal/intmat"
	"looppart/internal/loopir"
	"looppart/internal/polytope"
	"looppart/internal/rational"
)

// Tile is a hyperparallelepiped loop tile, represented by the integer
// matrix L whose rows are the edge vectors of the tile at the origin.
type Tile struct {
	L intmat.Mat
}

// Rect returns the rectangular tile with the given extents: extents[k] is
// the number of iterations the tile spans in dimension k, so L is the
// diagonal matrix of extents and a tile holds Π extents points.
func Rect(extents ...int64) Tile {
	for _, e := range extents {
		if e <= 0 {
			panic(fmt.Sprintf("tile: non-positive extent %d", e))
		}
	}
	return Tile{L: intmat.Diag(extents...)}
}

// Parallelepiped returns the tile with the given edge-vector matrix.
// L must be square and nonsingular.
func Parallelepiped(l intmat.Mat) Tile {
	if !l.IsNonsingular() {
		panic("tile: L must be square and nonsingular")
	}
	return Tile{L: l}
}

// FromHyperplanes builds L = Λ(H⁻¹)ᵗ from bounding hyperplane normals H
// and extents λ (Definition 2). It returns an error if H is singular or
// the resulting edge vectors are not integral (a non-integral L means the
// requested hyperplane family does not tile the integer lattice exactly;
// callers should scale λ).
func FromHyperplanes(h intmat.Mat, lambda []int64) (Tile, error) {
	if !h.IsSquare() || len(lambda) != h.Rows() {
		return Tile{}, fmt.Errorf("tile: H must be square with one extent per row")
	}
	hinv, ok := h.ToRat().Inverse()
	if !ok {
		return Tile{}, fmt.Errorf("tile: H is singular")
	}
	lam := intmat.Diag(lambda...).ToRat()
	lrat := lam.Mul(hinv.Transpose())
	l := intmat.NewMat(h.Rows(), h.Cols())
	for i := 0; i < h.Rows(); i++ {
		for j := 0; j < h.Cols(); j++ {
			v := lrat.At(i, j)
			if !v.IsInt() {
				return Tile{}, fmt.Errorf("tile: edge vector entry (%d,%d) = %s is not integral", i, j, v)
			}
			l.Set(i, j, v.Int())
		}
	}
	if !l.IsNonsingular() {
		return Tile{}, fmt.Errorf("tile: resulting L is singular")
	}
	return Tile{L: l}, nil
}

// Dim returns the dimensionality of the tile.
func (t Tile) Dim() int { return t.L.Rows() }

// IsRect reports whether the tile is rectangular (L diagonal).
func (t Tile) IsRect() bool {
	for i := 0; i < t.L.Rows(); i++ {
		for j := 0; j < t.L.Cols(); j++ {
			if i != j && t.L.At(i, j) != 0 {
				return false
			}
		}
	}
	return true
}

// Extents returns the diagonal extents of a rectangular tile.
// It panics if the tile is not rectangular.
func (t Tile) Extents() []int64 {
	if !t.IsRect() {
		panic("tile: Extents of non-rectangular tile")
	}
	e := make([]int64, t.Dim())
	for i := range e {
		e[i] = t.L.At(i, i)
	}
	return e
}

// Volume returns |det L|, the number of integer points assigned to the
// tile at the origin under the half-open convention 0 ≤ aᵢ < 1
// (Proposition 2: every unimodular-coordinate cell of a lattice tiling
// holds exactly |det L| points; for rectangular tiles the product of the
// extents). A volume beyond int64 is an error wrapping intmat.ErrOverflow.
func (t Tile) Volume() (int64, error) {
	d, err := t.L.DetChecked()
	if d == math.MinInt64 {
		return 0, fmt.Errorf("%w: tile volume 2^63", intmat.ErrOverflow)
	}
	if d < 0 {
		d = -d
	}
	return d, err
}

// String renders the tile.
func (t Tile) String() string {
	if t.IsRect() {
		parts := make([]string, t.Dim())
		for i, e := range t.Extents() {
			parts[i] = fmt.Sprintf("%d", e)
		}
		return "rect(" + strings.Join(parts, "x") + ")"
	}
	return "parallelepiped" + t.L.String()
}

// Tiling maps iteration points to tiles: tiles are the translates of the
// tile at the origin by the row lattice of L, anchored at the iteration
// space's lower corner.
type Tiling struct {
	Tile   Tile
	Origin []int64       // lower corner of the iteration space
	linv   intmat.RatMat // L⁻¹ cached

	// Integer fast path for Coord: linv == linvNum / linvDen elementwise,
	// with linvNum[j][k] = den·L⁻¹[k][j] (transposed so the inner product
	// over k walks one row). Valid only when intOK — the common case;
	// tiles whose inverse denominators overflow the scaling keep the
	// exact rational path.
	linvNum [][]int64
	linvDen int64
	intOK   bool
}

// NewTiling constructs a tiling anchored at origin.
func NewTiling(t Tile, origin []int64) (*Tiling, error) {
	if len(origin) != t.Dim() {
		return nil, fmt.Errorf("tile: origin has %d coordinates for a %d-D tile", len(origin), t.Dim())
	}
	inv, ok := t.L.ToRat().Inverse()
	if !ok {
		return nil, fmt.Errorf("tile: singular tile matrix")
	}
	tl := &Tiling{Tile: t, Origin: origin, linv: inv}
	tl.initIntInverse()
	return tl, nil
}

// initIntInverse scales L⁻¹ by the LCM of its denominators into one
// integer matrix, enabling Coord to run on int64 multiply-adds and one
// floor division instead of per-entry rational arithmetic. Any overflow
// while scaling leaves intOK false and Coord on the exact rational path.
func (tl *Tiling) initIntInverse() {
	d := tl.Tile.Dim()
	den := int64(1)
	for k := 0; k < d; k++ {
		for j := 0; j < d; j++ {
			ed := tl.linv.At(k, j).Den()
			g := rational.GCD(den, ed)
			nd, ok := mulOK(den/g, ed)
			if !ok {
				return
			}
			den = nd
		}
	}
	num := make([][]int64, d)
	for j := 0; j < d; j++ {
		num[j] = make([]int64, d)
		for k := 0; k < d; k++ {
			e := tl.linv.At(k, j)
			v, ok := mulOK(e.Num(), den/e.Den())
			if !ok {
				return
			}
			num[j][k] = v
		}
	}
	tl.linvNum, tl.linvDen, tl.intOK = num, den, true
}

// Coord returns the tile coordinates of the iteration point p: the floor
// of the lattice coordinates (p − origin)·L⁻¹. Iterations with equal
// coordinates belong to the same tile.
func (tl *Tiling) Coord(p []int64) []int64 {
	return tl.CoordInto(p, make([]int64, tl.Tile.Dim()))
}

// CoordInto is Coord writing into a caller-provided buffer (len = Dim)
// and returning it — the allocation-free form the assignment scan and
// per-point processor lookups run on. Points whose scaled coordinates
// overflow int64 fall back to the exact rational arithmetic.
func (tl *Tiling) CoordInto(p, out []int64) []int64 {
	d := tl.Tile.Dim()
	if len(p) != d {
		panic("tile: point dimension mismatch")
	}
	if tl.intOK && tl.coordInt(p, out) {
		return out
	}
	rel := make([]rational.Rat, d)
	for k := range rel {
		rel[k] = rational.FromInt(p[k] - tl.Origin[k])
	}
	for j := 0; j < d; j++ {
		s := rational.Zero
		for k := 0; k < d; k++ {
			s = s.Add(rel[k].Mul(tl.linv.At(k, j)))
		}
		out[j] = s.Floor()
	}
	return out
}

// coordInt computes the tile coordinates on the scaled integer inverse:
// coord_j = floor(Σ_k (p_k − origin_k)·num[j][k] / den), exactly the
// rational result. Reports false on any intermediate overflow, in which
// case the caller re-runs the rational path.
func (tl *Tiling) coordInt(p, out []int64) bool {
	den := tl.linvDen
	for j := range out {
		row := tl.linvNum[j]
		acc := int64(0)
		for k, nk := range row {
			o := tl.Origin[k]
			rel := p[k] - o
			if (o > 0 && rel > p[k]) || (o < 0 && rel < p[k]) {
				return false
			}
			prod, ok := mulOK(rel, nk)
			if !ok {
				return false
			}
			acc, ok = addOK(acc, prod)
			if !ok {
				return false
			}
		}
		out[j] = floorDiv(acc, den)
	}
	return true
}

// mulOK and addOK are non-panicking overflow-checked int64 arithmetic:
// the fast path degrades to the rational path instead of aborting.
func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == minI64 && b == -1) || (b == minI64 && a == -1) {
		return 0, false
	}
	return p, true
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

const minI64 = -1 << 63

// floorDiv is floor(a/den) for den > 0.
func floorDiv(a, den int64) int64 {
	q := a / den
	if a%den != 0 && a < 0 {
		q--
	}
	return q
}

// Bounds describes a rectangular iteration space [Lo[k], Hi[k]] per
// dimension, inclusive (the paper's §2.1 assumption).
type Bounds struct {
	Lo, Hi []int64
}

// BoundsOf extracts the doall iteration space of a nest.
func BoundsOf(n *loopir.Nest) Bounds {
	loops := n.DoallLoops()
	b := Bounds{Lo: make([]int64, len(loops)), Hi: make([]int64, len(loops))}
	for k, l := range loops {
		b.Lo[k] = l.Lo
		b.Hi[k] = l.Hi
	}
	return b
}

// Dim returns the dimensionality of the space.
func (b Bounds) Dim() int { return len(b.Lo) }

// Size returns the total number of iteration points.
func (b Bounds) Size() int64 {
	total := int64(1)
	for k := range b.Lo {
		total *= b.Hi[k] - b.Lo[k] + 1
	}
	return total
}

// Extents returns the per-dimension sizes.
func (b Bounds) Extents() []int64 {
	e := make([]int64, b.Dim())
	for k := range e {
		e[k] = b.Hi[k] - b.Lo[k] + 1
	}
	return e
}

// Contains reports whether p lies inside the bounds.
func (b Bounds) Contains(p []int64) bool {
	for k := range p {
		if p[k] < b.Lo[k] || p[k] > b.Hi[k] {
			return false
		}
	}
	return true
}

// ForEach enumerates every point in lexicographic order.
func (b Bounds) ForEach(fn func(p []int64) bool) {
	if b.Dim() == 0 {
		return
	}
	p := make([]int64, b.Dim())
	copy(p, b.Lo)
	for {
		q := make([]int64, len(p))
		copy(q, p)
		if !fn(q) {
			return
		}
		k := len(p) - 1
		for k >= 0 {
			p[k]++
			if p[k] <= b.Hi[k] {
				break
			}
			p[k] = b.Lo[k]
			k--
		}
		if k < 0 {
			return
		}
	}
}

// Assignment maps every iteration point of a bounded space to a processor.
type Assignment struct {
	Tiling *Tiling
	Space  Bounds
	// procOf maps tile-coordinate keys to processor ids (general path).
	procOf   map[string]int
	numProcs int
	numTiles int
	// rectGrid, when non-nil, enables the closed-form fast path for
	// rectangular tilings anchored at the space's lower corner:
	// rectGrid[k] is the number of tiles along dimension k.
	rectGrid []int64
	rectExt  []int64
}

// Assign builds the processor assignment for a tiling over a space:
// distinct tiles are numbered in lexicographic tile-coordinate order (the
// first-seen order of a lexicographic scan of the space) and dealt to P
// processors round-robin. When the tile count equals P (the intended
// operating point: |space|/|tile| = P), every processor executes exactly
// one tile.
func Assign(tl *Tiling, space Bounds, procs int) (*Assignment, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("tile: need at least one processor")
	}
	if space.Dim() != tl.Tile.Dim() {
		return nil, fmt.Errorf("tile: space dimension %d != tile dimension %d", space.Dim(), tl.Tile.Dim())
	}
	a := &Assignment{
		Tiling:   tl,
		Space:    space,
		numProcs: procs,
	}
	if tl.Tile.IsRect() && sameVec(tl.Origin, space.Lo) {
		// Closed form: tile coordinate = (p−lo)/ext per dimension.
		a.rectExt = tl.Tile.Extents()
		a.rectGrid = make([]int64, space.Dim())
		tiles := 1
		for k := range a.rectGrid {
			a.rectGrid[k] = ceilDiv(space.Hi[k]-space.Lo[k]+1, a.rectExt[k])
			tiles *= int(a.rectGrid[k])
		}
		a.numTiles = tiles
		return a, nil
	}
	a.procOf = make(map[string]int)
	d := space.Dim()
	if d == 0 {
		return a, nil
	}
	// Allocation-free lexicographic scan: the iteration point, the tile
	// coordinates, and the map key live in three reused buffers. Only a
	// first-seen tile pays a key-string allocation; lookups of existing
	// keys convert in place.
	p := make([]int64, d)
	copy(p, space.Lo)
	coord := make([]int64, d)
	key := make([]byte, 0, 16*d)
	for {
		tl.CoordInto(p, coord)
		key = appendCoordKey(key[:0], coord)
		if _, ok := a.procOf[string(key)]; !ok {
			a.procOf[string(key)] = a.numTiles % procs
			a.numTiles++
		}
		k := d - 1
		for k >= 0 {
			p[k]++
			if p[k] <= space.Hi[k] {
				break
			}
			p[k] = space.Lo[k]
			k--
		}
		if k < 0 {
			return a, nil
		}
	}
}

func sameVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0 and b > 0; unlike (a+b−1)/b it
// cannot overflow for an extent near MaxInt64.
func ceilDiv(a, b int64) int64 { return a/b + min(a%b, 1) }

// ProcOf returns the processor that executes iteration p.
func (a *Assignment) ProcOf(p []int64) int {
	if a.rectGrid != nil {
		if !a.Space.Contains(p) {
			panic(fmt.Sprintf("tile: iteration %v outside assigned space", p))
		}
		idx := int64(0)
		for k := range p {
			c := (p[k] - a.Space.Lo[k]) / a.rectExt[k]
			idx = idx*a.rectGrid[k] + c
		}
		return int(idx % int64(a.numProcs))
	}
	// Per-call stack buffers: ProcOf runs once per iteration point under
	// concurrent executors (exec.RunParallel), so the coordinates and key
	// must not live on the shared Assignment.
	d := a.Tiling.Tile.Dim()
	var cArr [8]int64
	var kArr [128]byte
	var coord []int64
	if d <= len(cArr) {
		coord = cArr[:d]
	} else {
		coord = make([]int64, d)
	}
	a.Tiling.CoordInto(p, coord)
	key := appendCoordKey(kArr[:0], coord)
	proc, ok := a.procOf[string(key)]
	if !ok {
		panic(fmt.Sprintf("tile: iteration %v outside assigned space", p))
	}
	return proc
}

// NumTiles returns the number of distinct tiles intersecting the space.
func (a *Assignment) NumTiles() int { return a.numTiles }

// NumProcs returns the processor count.
func (a *Assignment) NumProcs() int { return a.numProcs }

// PointsOf returns the iteration points of each processor, in iteration
// order. The slice is indexed by processor id.
func (a *Assignment) PointsOf() [][][]int64 {
	out := make([][][]int64, a.numProcs)
	a.Space.ForEach(func(p []int64) bool {
		proc := a.ProcOf(p)
		out[proc] = append(out[proc], p)
		return true
	})
	return out
}

// LoadImbalance returns max/mean iterations per processor (1.0 = perfect).
func (a *Assignment) LoadImbalance() float64 {
	counts := make([]int64, a.numProcs)
	a.Space.ForEach(func(p []int64) bool {
		counts[a.ProcOf(p)]++
		return true
	})
	var max, sum int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(a.numProcs)
	return float64(max) / mean
}

// appendCoordKey appends the map key for tile coordinates c — each value
// in decimal followed by a comma — to b and returns it. The format must
// match between the Assign scan (which inserts keys) and ProcOf (which
// looks them up).
func appendCoordKey(b []byte, c []int64) []byte {
	for _, v := range c {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ',')
	}
	return b
}

func coordKey(c []int64) string {
	var b [64]byte
	return string(appendCoordKey(b[:0], c))
}

// ForEachPoint calls fn once for each of the |det L| integer points of the
// tile at the origin — the set OriginPoints returns, in another order —
// until fn returns false. p is one buffer reused across calls: fn must
// copy a point to keep it. Allocations do not grow with the tile.
//
// No point outside the tile is visited. The row Hermite normal form H of
// L is upper triangular and spans L's row lattice, so the box Π[0, hₖₖ)
// over its diagonal holds exactly one representative z of each residue
// class of Zᵈ modulo that lattice (reduce z₀ by row 0 of H, then z₁ by
// row 1, …). The tile at the origin, a fundamental domain of the same
// lattice, holds exactly one as well: z − ⌊z·L⁻¹⌋·L. The error reports a
// singular L, or a Hermite form or tile point that overflows int64; the
// walk may have stopped part way.
func (t Tile) ForEachPoint(fn func(p []int64) bool) error {
	d := t.Dim()
	if d == 0 {
		return nil
	}
	h, err := intmat.HNFChecked(t.L)
	if err != nil {
		return err
	}
	buf := make([]int64, 4*d)
	z, c, p, origin := buf[:d], buf[d:2*d], buf[2*d:3*d], buf[3*d:]
	tl, err := NewTiling(t, origin)
	if err != nil {
		return err
	}
	for {
		if !tl.reduceInto(z, c, p) {
			return fmt.Errorf("tile: point of %v overflows int64", t)
		}
		if !fn(p) {
			return nil
		}
		k := d - 1
		for ; k >= 0; k-- {
			if z[k]++; z[k] < h.H.At(k, k) {
				break
			}
			z[k] = 0
		}
		if k < 0 {
			return nil
		}
	}
}

// reduceInto writes z − ⌊z·L⁻¹⌋·L, the point of the tile at the origin
// congruent to z modulo L's row lattice, into p, using c for the tile
// coordinates. The tiling must be anchored at the origin. Reports false on
// int64 overflow.
func (tl *Tiling) reduceInto(z, c, p []int64) bool {
	tl.CoordInto(z, c)
	for j := range p {
		acc := int64(0)
		for i, ci := range c {
			prod, ok := mulOK(ci, tl.Tile.L.At(i, j))
			if !ok {
				return false
			}
			if acc, ok = addOK(acc, prod); !ok {
				return false
			}
		}
		v := z[j] - acc
		if (acc > 0 && v > z[j]) || (acc < 0 && v < z[j]) {
			return false
		}
		p[j] = v
	}
	return true
}

// OriginPoints enumerates the integer iteration points of the tile at the
// origin under the half-open convention (tile coordinates all floor to 0).
// The points are found by scanning the bounding box of the tile's vertices
// and materialized: it is the independent oracle ForEachPoint is checked
// against, not a path for large tiles.
func OriginPoints(t Tile) [][]int64 {
	d := t.Dim()
	tl, err := NewTiling(t, make([]int64, d))
	if err != nil {
		panic(err)
	}
	// Bounding box: for each dimension, the sum of negative edge
	// components to the sum of positive edge components.
	lo := make([]int64, d)
	hi := make([]int64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < d; i++ {
			v := t.L.At(i, j)
			if v < 0 {
				lo[j] += v
			} else {
				hi[j] += v
			}
		}
	}
	var pts [][]int64
	(Bounds{Lo: lo, Hi: hi}).ForEach(func(p []int64) bool {
		c := tl.Coord(p)
		for _, v := range c {
			if v != 0 {
				return true
			}
		}
		pts = append(pts, p)
		return true
	})
	return pts
}

// LoopBoundsFor derives nested loop bounds for the iterations of one tile
// of the partition: the integer points i with space.Lo ≤ i ≤ space.Hi and
// tile coordinates exactly `coord` (cⱼ ≤ (i−origin)·L⁻¹ⱼ < cⱼ+1). The
// bounds come from Fourier–Motzkin elimination, so they hold for skewed
// (hyperparallelepiped) tiles, where the inner loop's range depends on the
// outer indices — the code-generation problem §3.7 notes rectangular tiles
// avoid.
func LoopBoundsFor(t Tile, origin, coord []int64, space Bounds) (*polytope.LoopNest, error) {
	l := t.Dim()
	if len(origin) != l || len(coord) != l || space.Dim() != l {
		return nil, fmt.Errorf("tile: dimension mismatch")
	}
	minv, ok := t.L.ToRat().Inverse()
	if !ok {
		return nil, fmt.Errorf("tile: singular tile matrix")
	}
	sys := polytope.NewSystem(l)
	for j := 0; j < l; j++ {
		// coordinate_j(i) = Σ_k (i_k − origin_k)·M[k][j].
		coefs := make([]rational.Rat, l)
		off := rational.Zero
		den := int64(1)
		for k := 0; k < l; k++ {
			coefs[k] = minv.At(k, j)
			off = off.Add(minv.At(k, j).Mul(rational.FromInt(origin[k])))
			den = rational.LCM(den, coefs[k].Den())
		}
		d := rational.FromInt(den)
		// Integer form: Σ (den·M[k][j])·i_k, with bound scaled by den.
		intCoefs := make([]int64, l)
		for k := 0; k < l; k++ {
			intCoefs[k] = coefs[k].Mul(d).Int()
		}
		offScaled := off.Mul(d)
		cLo := rational.FromInt(coord[j]).Mul(d).Add(offScaled)
		cHi := rational.FromInt(coord[j] + 1).Mul(d).Add(offScaled)
		// coordinate ≥ c_j  →  −Σ a·i ≤ −cLo (round: lhs integer, so
		// bound floors).
		neg := make([]int64, l)
		for k := range intCoefs {
			neg[k] = -intCoefs[k]
		}
		sys.AddInt(neg, cLo.Neg().Floor())
		// coordinate < c_j+1  →  Σ a·i ≤ ceil(cHi) − 1.
		sys.AddInt(intCoefs, cHi.Ceil()-1)
	}
	for k := 0; k < l; k++ {
		row := make([]int64, l)
		row[k] = 1
		sys.AddInt(row, space.Hi[k])
		row2 := make([]int64, l)
		row2[k] = -1
		sys.AddInt(row2, -space.Lo[k])
	}
	return sys.Eliminate(), nil
}

// LoopBoundsSymbolic is LoopBoundsFor with the tile coordinates left
// symbolic: the returned nest is over 2l variables — x₀..x_{l−1} are the
// tile coordinates (parameters, never looped) and x_l..x_{2l−1} the
// iteration variables, whose bounds reference the parameters and the
// outer iteration variables. This is the form code generation needs: one
// emitted function covers every tile of the partition.
func LoopBoundsSymbolic(t Tile, origin []int64, space Bounds) (*polytope.LoopNest, error) {
	l := t.Dim()
	if len(origin) != l || space.Dim() != l {
		return nil, fmt.Errorf("tile: dimension mismatch")
	}
	minv, ok := t.L.ToRat().Inverse()
	if !ok {
		return nil, fmt.Errorf("tile: singular tile matrix")
	}
	sys := polytope.NewSystem(2 * l)
	for j := 0; j < l; j++ {
		den := int64(1)
		for k := 0; k < l; k++ {
			den = rational.LCM(den, minv.At(k, j).Den())
		}
		d := rational.FromInt(den)
		off := rational.Zero
		intCoefs := make([]int64, l)
		for k := 0; k < l; k++ {
			intCoefs[k] = minv.At(k, j).Mul(d).Int()
			off = off.Add(minv.At(k, j).Mul(rational.FromInt(origin[k])))
		}
		offScaled := off.Mul(d)
		// c_j ≤ coordinate_j(i):  den·c_j − Σ a_k·i_k ≤ floor(−den·off).
		row := make([]int64, 2*l)
		row[j] = den
		for k := 0; k < l; k++ {
			row[l+k] = -intCoefs[k]
		}
		sys.AddInt(row, offScaled.Neg().Floor())
		// coordinate_j(i) < c_j + 1:
		//   Σ a_k·i_k − den·c_j ≤ ceil(den·off + den) − 1.
		row2 := make([]int64, 2*l)
		row2[j] = -den
		for k := 0; k < l; k++ {
			row2[l+k] = intCoefs[k]
		}
		sys.AddInt(row2, offScaled.Add(d).Ceil()-1)
	}
	for k := 0; k < l; k++ {
		row := make([]int64, 2*l)
		row[l+k] = 1
		sys.AddInt(row, space.Hi[k])
		row2 := make([]int64, 2*l)
		row2[l+k] = -1
		sys.AddInt(row2, -space.Lo[k])
	}
	return sys.Eliminate(), nil
}

// RectTilingFor builds the natural rectangular tiling of a space with the
// given per-dimension tile extents, anchored at the space's lower corner.
func RectTilingFor(space Bounds, extents []int64) (*Tiling, error) {
	if len(extents) != space.Dim() {
		return nil, fmt.Errorf("tile: %d extents for %d-D space", len(extents), space.Dim())
	}
	return NewTiling(Rect(extents...), space.Lo)
}
