package intmat

// Overflow-checked integer arithmetic. The analytic formulas the whole
// stack optimizes over (cumulative footprints, Theorems 2 and 4; lattice
// intersection, Theorem 3) are only trustworthy if the integer machinery
// under them is: HNF/SNF row operations and Bareiss determinant
// intermediates are exactly the kind of values that silently blow past
// int64. Every operation reports overflow instead of wrapping or panicking:
//
//   - CheckedAdd / CheckedMul / CheckedNeg: primitives returning ok.
//   - SatAdd / SatMul: clamp to ±MaxInt64, preserving sign and order.
//   - Every algorithm (DetChecked, HNFChecked, SNFChecked, SolveLeft,
//     MulChecked, Rank, …): an error wrapping ErrOverflow. DetChecked
//     falls back to exact big.Int elimination, so it fails only when the
//     determinant itself exceeds int64 (DetBig never fails).

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// ErrOverflow reports that an int64 computation would wrap. It is the
// target for errors.Is on every checked entry point in this package.
var ErrOverflow = errors.New("intmat: int64 overflow")

// ShapeError reports an operation applied to a matrix of the wrong shape
// (e.g. Det of a non-square matrix).
type ShapeError struct {
	Op         string
	Rows, Cols int
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("intmat: %s of non-square %dx%d matrix", e.Op, e.Rows, e.Cols)
}

// CheckedAdd returns a+b and whether the sum is representable in int64.
func CheckedAdd(a, b int64) (int64, bool) {
	sum, _ := bits.Add64(uint64(a), uint64(b), 0)
	s := int64(sum)
	// Overflow iff the operands share a sign the sum does not.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	return s, true
}

// CheckedMul returns a·b and whether the product is representable in int64.
func CheckedMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	if hi != 0 {
		return 0, false
	}
	if neg {
		if lo > 1<<63 {
			return 0, false
		}
		return -int64(lo), true // lo == 1<<63 yields MinInt64 exactly
	}
	if lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// CheckedNeg returns -a and whether it is representable (false only for
// MinInt64).
func CheckedNeg(a int64) (int64, bool) {
	if a == math.MinInt64 {
		return 0, false
	}
	return -a, true
}

// SatAdd returns a+b clamped to [MinInt64, MaxInt64]. Saturation preserves
// sign and ordering, so a saturated cost still compares as worse than any
// exact one.
func SatAdd(a, b int64) int64 {
	if s, ok := CheckedAdd(a, b); ok {
		return s
	}
	if a > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// SatMul returns a·b clamped to [MinInt64, MaxInt64].
func SatMul(a, b int64) int64 {
	if p, ok := CheckedMul(a, b); ok {
		return p
	}
	if (a < 0) != (b < 0) {
		return math.MinInt64
	}
	return math.MaxInt64
}

// absU64 returns |a| as a uint64; exact for MinInt64 (2^63).
func absU64(a int64) uint64 {
	u := uint64(a)
	if a < 0 {
		u = -u
	}
	return u
}

// MulChecked returns m·n, reporting overflow. Shape mismatches return a
// typed error too.
func (m Mat) MulChecked(n Mat) (Mat, error) {
	if m.cols != n.rows {
		return Mat{}, fmt.Errorf("intmat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols)
	}
	p := NewMat(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		if err := n.MulVecInto(m.a[i*m.cols:(i+1)*m.cols], p.a[i*p.cols:(i+1)*p.cols]); err != nil {
			return Mat{}, fmt.Errorf("%w (product row %d)", err, i)
		}
	}
	return p, nil
}

// MulVecChecked returns the row-vector product v·m (paper convention:
// iterations are row vectors multiplied on the left), reporting overflow.
func (m Mat) MulVecChecked(v []int64) ([]int64, error) {
	if len(v) != m.rows {
		return nil, fmt.Errorf("intmat: MulVecChecked length mismatch: %d coefficients for %d rows", len(v), m.rows)
	}
	out := make([]int64, m.cols)
	if err := m.MulVecInto(v, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DetChecked returns the determinant of a square matrix. Bareiss
// elimination runs first in int64 with every intermediate checked; if any
// intermediate would wrap, the computation restarts in exact big.Int
// arithmetic, so the only failures are a non-square receiver (ShapeError)
// or a determinant whose value itself exceeds int64 (ErrOverflow — use
// DetBig for those).
func (m Mat) DetChecked() (int64, error) {
	if !m.IsSquare() {
		return 0, &ShapeError{Op: "Det", Rows: m.rows, Cols: m.cols}
	}
	if d, ok := m.detBareiss(); ok {
		return d, nil
	}
	d := m.DetBig()
	if d.IsInt64() {
		return d.Int64(), nil
	}
	return 0, fmt.Errorf("%w: determinant %s exceeds int64", ErrOverflow, d.String())
}

// SolveLeft solves the row-vector system x·m = b for square nonsingular
// m by Cramer's rule: xᵢ = det(m with row i replaced by b) / det m. It
// returns the numerators and the common denominator det m, so xᵢ is
// integral exactly when den divides num[i]. A singular m returns den 0
// and no numerators; a determinant beyond int64 returns ErrOverflow.
func SolveLeft(m Mat, b []int64) (num []int64, den int64, err error) {
	if len(b) != m.cols {
		return nil, 0, fmt.Errorf("intmat: SolveLeft length mismatch: %d components for %d columns", len(b), m.cols)
	}
	if den, err = m.DetChecked(); err != nil || den == 0 {
		return nil, 0, err
	}
	num = make([]int64, m.rows)
	for i := range num {
		if num[i], err = m.WithRow(i, b).DetChecked(); err != nil {
			return nil, 0, err
		}
	}
	return num, den, nil
}

// detBareiss is fraction-free elimination with checked intermediates;
// ok is false when any intermediate would wrap int64.
func (m Mat) detBareiss() (int64, bool) {
	n := m.rows
	if n == 0 {
		return 1, true
	}
	w := m.Clone()
	sign := int64(1)
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if w.At(k, k) == 0 {
			p := -1
			for i := k + 1; i < n; i++ {
				if w.At(i, k) != 0 {
					p = i
					break
				}
			}
			if p == -1 {
				return 0, true
			}
			w.swapRows(k, p)
			sign = -sign
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				p1, ok := CheckedMul(w.At(i, j), w.At(k, k))
				if !ok {
					return 0, false
				}
				p2, ok := CheckedMul(w.At(i, k), w.At(k, j))
				if !ok {
					return 0, false
				}
				num, ok := CheckedAdd(p1, -p2)
				if !ok || p2 == math.MinInt64 {
					return 0, false
				}
				w.Set(i, j, num/prev) // exact by Bareiss invariant
			}
			w.Set(i, k, 0)
		}
		prev = w.At(k, k)
	}
	return sign * w.At(n-1, n-1), true
}

// DetBig returns the exact determinant as a big.Int, via the same Bareiss
// elimination over arbitrary precision. It panics only on a non-square
// receiver.
func (m Mat) DetBig() *big.Int {
	if !m.IsSquare() {
		panic((&ShapeError{Op: "DetBig", Rows: m.rows, Cols: m.cols}).Error())
	}
	n := m.rows
	if n == 0 {
		return big.NewInt(1)
	}
	w := make([][]*big.Int, n)
	for i := 0; i < n; i++ {
		w[i] = make([]*big.Int, n)
		for j := 0; j < n; j++ {
			w[i][j] = big.NewInt(m.At(i, j))
		}
	}
	sign := int64(1)
	prev := big.NewInt(1)
	var tmp big.Int
	for k := 0; k < n-1; k++ {
		if w[k][k].Sign() == 0 {
			p := -1
			for i := k + 1; i < n; i++ {
				if w[i][k].Sign() != 0 {
					p = i
					break
				}
			}
			if p == -1 {
				return big.NewInt(0)
			}
			w[k], w[p] = w[p], w[k]
			sign = -sign
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				num := new(big.Int).Mul(w[i][j], w[k][k])
				num.Sub(num, tmp.Mul(w[i][k], w[k][j]))
				w[i][j] = num.Quo(num, prev) // exact by Bareiss invariant
			}
			w[i][k] = big.NewInt(0)
		}
		prev = w[k][k]
	}
	d := new(big.Int).Set(w[n-1][n-1])
	if sign < 0 {
		d.Neg(d)
	}
	return d
}
