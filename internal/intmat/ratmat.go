package intmat

import (
	"fmt"

	"looppart/internal/rational"
)

// RatMat is a dense matrix of exact rationals. It backs the one operation
// that leaves the integers: tile-matrix inversion (L = Λ(H⁻¹)ᵗ, Def. 2).
// Its entries are rational.Rat values, whose arithmetic panics on int64
// overflow; rank, independent columns and the Theorem 4 solve run on the
// overflow-checked integer eliminations instead (Rank, MaxIndependentCols,
// SolveLeft).
type RatMat struct {
	rows, cols int
	a          []rational.Rat
}

// NewRatMat returns a zero rows×cols rational matrix.
func NewRatMat(rows, cols int) RatMat {
	if rows < 0 || cols < 0 {
		panic("intmat: negative dimension")
	}
	return RatMat{rows: rows, cols: cols, a: make([]rational.Rat, rows*cols)}
}

// ToRat converts an integer matrix to a rational matrix.
func (m Mat) ToRat() RatMat {
	r := NewRatMat(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			r.Set(i, j, rational.FromInt(m.At(i, j)))
		}
	}
	return r
}

// Rows returns the number of rows.
func (r RatMat) Rows() int { return r.rows }

// Cols returns the number of columns.
func (r RatMat) Cols() int { return r.cols }

// At returns the element at row i, column j.
func (r RatMat) At(i, j int) rational.Rat {
	r.check(i, j)
	return r.a[i*r.cols+j]
}

// Set assigns the element at row i, column j.
func (r RatMat) Set(i, j int, v rational.Rat) {
	r.check(i, j)
	r.a[i*r.cols+j] = v
}

func (r RatMat) check(i, j int) {
	if i < 0 || i >= r.rows || j < 0 || j >= r.cols {
		panic(fmt.Sprintf("intmat: index (%d,%d) out of range %dx%d", i, j, r.rows, r.cols))
	}
}

// Clone returns a deep copy.
func (r RatMat) Clone() RatMat {
	n := RatMat{rows: r.rows, cols: r.cols, a: make([]rational.Rat, len(r.a))}
	copy(n.a, r.a)
	return n
}

// Equal reports elementwise equality.
func (r RatMat) Equal(s RatMat) bool {
	if r.rows != s.rows || r.cols != s.cols {
		return false
	}
	for i := range r.a {
		if !r.a[i].Equal(s.a[i]) {
			return false
		}
	}
	return true
}

// Mul returns the product r·s.
func (r RatMat) Mul(s RatMat) RatMat {
	if r.cols != s.rows {
		panic("intmat: RatMat Mul shape mismatch")
	}
	p := NewRatMat(r.rows, s.cols)
	for i := 0; i < r.rows; i++ {
		for k := 0; k < r.cols; k++ {
			rik := r.At(i, k)
			if rik.IsZero() {
				continue
			}
			for j := 0; j < s.cols; j++ {
				p.Set(i, j, p.At(i, j).Add(rik.Mul(s.At(k, j))))
			}
		}
	}
	return p
}

// Transpose returns rᵗ.
func (r RatMat) Transpose() RatMat {
	t := NewRatMat(r.cols, r.rows)
	for i := 0; i < r.rows; i++ {
		for j := 0; j < r.cols; j++ {
			t.Set(j, i, r.At(i, j))
		}
	}
	return t
}

func (r RatMat) swapRows(i, j int) {
	for c := 0; c < r.cols; c++ {
		vi, vj := r.At(i, c), r.At(j, c)
		r.Set(i, c, vj)
		r.Set(j, c, vi)
	}
}

// Det returns the exact rational determinant of a square matrix.
func (r RatMat) Det() rational.Rat {
	if r.rows != r.cols {
		panic("intmat: RatMat Det of non-square matrix")
	}
	w := r.Clone()
	det := rational.One
	for col := 0; col < w.cols; col++ {
		p := -1
		for i := col; i < w.rows; i++ {
			if !w.At(i, col).IsZero() {
				p = i
				break
			}
		}
		if p == -1 {
			return rational.Zero
		}
		if p != col {
			w.swapRows(col, p)
			det = det.Neg()
		}
		piv := w.At(col, col)
		det = det.Mul(piv)
		for i := col + 1; i < w.rows; i++ {
			f := w.At(i, col).Div(piv)
			if f.IsZero() {
				continue
			}
			for j := col; j < w.cols; j++ {
				w.Set(i, j, w.At(i, j).Sub(f.Mul(w.At(col, j))))
			}
		}
	}
	return det
}

// Inverse returns r⁻¹ and true, or the zero matrix and false if r is
// singular or non-square.
func (r RatMat) Inverse() (RatMat, bool) {
	if r.rows != r.cols {
		return RatMat{}, false
	}
	n := r.rows
	// Augment [r | I] and reduce to [I | r⁻¹].
	w := NewRatMat(n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, r.At(i, j))
		}
		w.Set(i, n+i, rational.One)
	}
	for col := 0; col < n; col++ {
		p := -1
		for i := col; i < n; i++ {
			if !w.At(i, col).IsZero() {
				p = i
				break
			}
		}
		if p == -1 {
			return RatMat{}, false
		}
		w.swapRows(col, p)
		piv := w.At(col, col)
		for j := col; j < 2*n; j++ {
			w.Set(col, j, w.At(col, j).Div(piv))
		}
		for i := 0; i < n; i++ {
			if i == col {
				continue
			}
			f := w.At(i, col)
			if f.IsZero() {
				continue
			}
			for j := col; j < 2*n; j++ {
				w.Set(i, j, w.At(i, j).Sub(f.Mul(w.At(col, j))))
			}
		}
	}
	inv := NewRatMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inv.Set(i, j, w.At(i, n+j))
		}
	}
	return inv, true
}
