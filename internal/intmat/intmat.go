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
//
// Every integer operation has one form, which reports int64 overflow as
// an error wrapping ErrOverflow (checked.go), never a panic or a wrapped
// value. Only shape misuse panics, and RatMat's rational entries.
package intmat

import (
	"fmt"
	"strings"
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

// MulVecInto writes the row-vector product v·m (paper convention:
// iterations are row vectors multiplied on the left) into out (len =
// Cols), for callers that stream many points through one buffer. It
// reports overflow; out is then partly written.
func (m Mat) MulVecInto(v, out []int64) error {
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
			prod, ok := CheckedMul(vi, mij)
			if !ok {
				return fmt.Errorf("%w: v·m component %d", ErrOverflow, j)
			}
			if out[j], ok = CheckedAdd(out[j], prod); !ok {
				return fmt.Errorf("%w: v·m component %d", ErrOverflow, j)
			}
		}
	}
	return nil
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

func (m Mat) swapRows(i, j int) {
	for c := 0; c < m.cols; c++ {
		vi, vj := m.At(i, c), m.At(j, c)
		m.Set(i, c, vj)
		m.Set(j, c, vi)
	}
}

// Rank returns the rank of m over the rationals: the rank of its Hermite
// normal form.
func (m Mat) Rank() (int, error) {
	h, err := HNFChecked(m)
	return h.Rank, err
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
// independent columns of m, the leftmost such set: the pivot columns of
// its Hermite normal form, which are exactly the columns a greedy
// left-to-right scan keeps. This implements the §3.4.1 reduction: when the
// columns of G are dependent, footprint analysis proceeds on the submatrix
// G' of independent columns (Example 7).
func (m Mat) MaxIndependentCols() ([]int, error) {
	h, err := HNFChecked(m)
	return h.PivotCols, err
}
