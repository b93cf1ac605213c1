// Package intmat implements exact integer and rational matrix algebra for
// loop-partitioning analysis.
//
// The paper's framework (Agarwal, Kranz, Natarajan 1993) reduces loop
// partitioning to questions about small integer matrices: the reference
// matrix G of an affine subscript function g(i) = i·G + a, and the tile
// matrix L describing a hyperparallelepiped of iterations. Everything the
// analysis needs — |det LG| footprint sizes (Eq. 2), unimodularity tests
// (Theorem 1), Hermite-normal-form solvability (Lemma 2, Theorem 3), and
// maximal independent column selection (§3.4.1) — lives here.
//
// Matrices follow the paper's row-vector convention: a loop iteration i is a
// row vector of length l, G is l×d, and i·G is a row vector of length d.
package intmat

import (
	"fmt"
	"strings"

	"looppart/internal/rational"
)

// Mat is a dense integer matrix with row-major storage.
// The zero value is an empty (0×0) matrix.
type Mat struct {
	rows, cols int
	a          []int64
}

// NewMat returns a zero-initialized rows×cols matrix.
// It panics if either dimension is negative.
func NewMat(rows, cols int) Mat {
	if rows < 0 || cols < 0 {
		panic("intmat: negative dimension")
	}
	return Mat{rows: rows, cols: cols, a: make([]int64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]int64) Mat {
	if len(rows) == 0 {
		return Mat{}
	}
	c := len(rows[0])
	m := NewMat(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("intmat: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r)))
		}
		copy(m.a[i*c:(i+1)*c], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(d ...int64) Mat {
	m := NewMat(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Rows returns the number of rows.
func (m Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m Mat) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m Mat) At(i, j int) int64 {
	m.check(i, j)
	return m.a[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m Mat) Set(i, j int, v int64) {
	m.check(i, j)
	m.a[i*m.cols+j] = v
}

func (m Mat) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("intmat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m Mat) Clone() Mat {
	n := Mat{rows: m.rows, cols: m.cols, a: make([]int64, len(m.a))}
	copy(n.a, m.a)
	return n
}

// Equal reports whether m and n have the same shape and entries.
func (m Mat) Equal(n Mat) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.a {
		if m.a[i] != n.a[i] {
			return false
		}
	}
	return true
}

// Row returns a copy of row i.
func (m Mat) Row(i int) []int64 {
	r := make([]int64, m.cols)
	copy(r, m.a[i*m.cols:(i+1)*m.cols])
	return r
}

// Col returns a copy of column j.
func (m Mat) Col(j int) []int64 {
	c := make([]int64, m.rows)
	for i := 0; i < m.rows; i++ {
		c[i] = m.At(i, j)
	}
	return c
}

// SetRow overwrites row i with r. It panics on length mismatch.
func (m Mat) SetRow(i int, r []int64) {
	if len(r) != m.cols {
		panic("intmat: SetRow length mismatch")
	}
	copy(m.a[i*m.cols:(i+1)*m.cols], r)
}

// WithRow returns a copy of m with row i replaced by r. This is the
// LG_{i→â} operation of Theorem 2.
func (m Mat) WithRow(i int, r []int64) Mat {
	n := m.Clone()
	n.SetRow(i, r)
	return n
}

// Transpose returns mᵗ.
func (m Mat) Transpose() Mat {
	t := NewMat(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·n. It panics on shape mismatch.
func (m Mat) Mul(n Mat) Mat {
	if m.cols != n.rows {
		panic(fmt.Sprintf("intmat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	p := NewMat(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.At(i, k)
			if mik == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				v := rational.CheckedAddInt(p.At(i, j), rational.CheckedMulInt(mik, n.At(k, j)))
				p.Set(i, j, v)
			}
		}
	}
	return p
}

// MulVec returns the row-vector product v·m (paper convention: iterations
// are row vectors multiplied on the left). It panics if len(v) != m.Rows().
func (m Mat) MulVec(v []int64) []int64 {
	if len(v) != m.rows {
		panic("intmat: MulVec length mismatch")
	}
	return m.MulVecInto(v, make([]int64, m.cols))
}

// MulVecInto is MulVec writing into out (len = Cols) and returning it, for
// callers that stream many points through one buffer.
func (m Mat) MulVecInto(v, out []int64) []int64 {
	if len(v) != m.rows || len(out) != m.cols {
		panic("intmat: MulVecInto length mismatch")
	}
	clear(out)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.a[i*m.cols : (i+1)*m.cols]
		for j, mij := range row {
			out[j] = rational.CheckedAddInt(out[j], rational.CheckedMulInt(vi, mij))
		}
	}
	return out
}

// Add returns m + n elementwise.
func (m Mat) Add(n Mat) Mat {
	if m.rows != n.rows || m.cols != n.cols {
		panic("intmat: Add shape mismatch")
	}
	s := m.Clone()
	for i := range s.a {
		s.a[i] = rational.CheckedAddInt(s.a[i], n.a[i])
	}
	return s
}

// Scale returns k·m.
func (m Mat) Scale(k int64) Mat {
	s := m.Clone()
	for i := range s.a {
		s.a[i] = rational.CheckedMulInt(s.a[i], k)
	}
	return s
}

// SubMatrix returns the matrix formed by the given row and column indices,
// in order. Indices may repeat.
func (m Mat) SubMatrix(rows, cols []int) Mat {
	s := NewMat(len(rows), len(cols))
	for i, ri := range rows {
		for j, cj := range cols {
			s.Set(i, j, m.At(ri, cj))
		}
	}
	return s
}

// SelectCols returns the matrix with only the listed columns, in order.
func (m Mat) SelectCols(cols []int) Mat {
	rows := make([]int, m.rows)
	for i := range rows {
		rows[i] = i
	}
	return m.SubMatrix(rows, cols)
}

// IsSquare reports whether m is square.
func (m Mat) IsSquare() bool { return m.rows == m.cols }

// IsZeroCol reports whether column j is entirely zero.
func (m Mat) IsZeroCol(j int) bool {
	for i := 0; i < m.rows; i++ {
		if m.At(i, j) != 0 {
			return false
		}
	}
	return true
}

// NonZeroCols returns the indices of columns that are not identically zero.
// Zero columns correspond to subscript positions independent of all loop
// indices (Example 1) and are dropped before footprint analysis.
func (m Mat) NonZeroCols() []int {
	var idx []int
	for j := 0; j < m.cols; j++ {
		if !m.IsZeroCol(j) {
			idx = append(idx, j)
		}
	}
	return idx
}

// String renders the matrix in a bracketed row-per-line form.
func (m Mat) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
	}
	b.WriteString("]")
	return b.String()
}

// Det returns the determinant of a square matrix, computed exactly by the
// Bareiss fraction-free elimination algorithm (with a transparent big.Int
// fallback when an int64 intermediate would wrap — see DetChecked). It
// panics if m is not square or if the determinant value itself exceeds
// int64; callers that must not panic use DetChecked or DetBig.
func (m Mat) Det() int64 {
	if !m.IsSquare() {
		panic("intmat: Det of non-square matrix")
	}
	d, err := m.DetChecked()
	if err != nil {
		panic(err.Error())
	}
	return d
}

func (m Mat) swapRows(i, j int) {
	for c := 0; c < m.cols; c++ {
		vi, vj := m.At(i, c), m.At(j, c)
		m.Set(i, c, vj)
		m.Set(j, c, vi)
	}
}

// Rank returns the rank of m over the rationals.
func (m Mat) Rank() int {
	r := m.ToRat()
	return r.gaussRank()
}

// IsUnimodular reports whether m is square with determinant ±1 (Theorem 1's
// condition for LG to coincide exactly with the footprint). A determinant
// beyond int64 is certainly not ±1, so this never panics.
func (m Mat) IsUnimodular() bool {
	if !m.IsSquare() {
		return false
	}
	d, err := m.DetChecked()
	return err == nil && (d == 1 || d == -1)
}

// IsNonsingular reports whether m is square with nonzero determinant
// (Theorem 4's weaker condition for rectangular tiles). A determinant
// beyond int64 is certainly nonzero, so this never panics.
func (m Mat) IsNonsingular() bool {
	if !m.IsSquare() {
		return false
	}
	d, err := m.DetChecked()
	return err != nil || d != 0
}

// MaxIndependentCols returns indices of a maximal set of linearly
// independent columns of m, scanning left to right (greedy). This implements
// the §3.4.1 reduction: when the columns of G are dependent, footprint
// analysis proceeds on the submatrix G' of independent columns (Example 7).
func (m Mat) MaxIndependentCols() []int {
	var chosen []int
	r := NewRatMat(m.rows, 0)
	for j := 0; j < m.cols; j++ {
		cand := r.appendCol(m.Col(j))
		if cand.gaussRank() > len(chosen) {
			chosen = append(chosen, j)
			r = cand
		}
	}
	return chosen
}

// GCDOfMinors returns the gcd of all k×k subdeterminants of m.
// Used with the Hermite normal form theorem (Lemma 2): the map i ↦ i·G is
// onto Z^d iff the columns are independent and the gcd of the d×d minors
// is 1. k must be between 1 and min(rows, cols).
func (m Mat) GCDOfMinors(k int) int64 {
	if k < 1 || k > m.rows || k > m.cols {
		panic("intmat: minor order out of range")
	}
	var g int64
	rowSets := combinations(m.rows, k)
	colSets := combinations(m.cols, k)
	for _, rs := range rowSets {
		for _, cs := range colSets {
			d := m.SubMatrix(rs, cs).Det()
			g = rational.GCD(g, d)
			if g == 1 {
				return 1
			}
		}
	}
	return g
}

// combinations returns all k-subsets of {0..n-1} in lexicographic order.
func combinations(n, k int) [][]int {
	if k > n {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	for {
		c := make([]int, k)
		copy(c, idx)
		out = append(out, c)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
