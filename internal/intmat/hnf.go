package intmat

import (
	"fmt"
	"math"
)

// This file implements the Hermite and Smith normal forms used by the
// lattice machinery. The paper invokes the Hermite normal form theorem
// twice: in Lemma 2 (the map i ↦ i·G is onto iff the columns of G are
// independent and the gcd of the maximal minors is 1) and implicitly in
// Theorem 3, where deciding whether two translated bounded lattices
// intersect requires solving t = Σ uᵢ·aᵢ over the integers.
//
// We use the ROW convention throughout: the lattice associated with a
// matrix A is the set of integer combinations of the rows of A, matching
// the paper's row-vector iteration spaces. The row Hermite normal form of
// A is H = U·A with U unimodular, H in row-echelon form with positive
// pivots and entries below each pivot zero, entries above each pivot
// reduced into [0, pivot).
//
// Every row and column operation detects int64 overflow and returns
// ErrOverflow. The Euclid-style reductions keep entries near the input
// magnitudes, but adversarial inputs (fuzzed matrices, large-entry
// subscripts) can genuinely wrap — those surface as errors, never as a
// wrong lattice basis and never as a panic.

// HNFResult carries the row Hermite normal form H = U·A.
type HNFResult struct {
	H Mat // the Hermite normal form, same shape as A
	U Mat // unimodular transform, rows(A) × rows(A)
	// PivotCols[k] is the column of the k-th pivot; len(PivotCols) == Rank.
	PivotCols []int
	Rank      int
}

// HNFChecked computes the row Hermite normal form of m with every row
// operation overflow-checked.
func HNFChecked(m Mat) (HNFResult, error) {
	h := m.Clone()
	u := Identity(m.rows)
	var pivots []int
	row := 0
	for col := 0; col < h.cols && row < h.rows; col++ {
		// Reduce column `col` below `row` to a single positive pivot via
		// the extended Euclid row operations.
		p := -1
		for i := row; i < h.rows; i++ {
			if h.At(i, col) != 0 {
				p = i
				break
			}
		}
		if p == -1 {
			continue
		}
		h.swapRows(row, p)
		u.swapRows(row, p)
		for i := row + 1; i < h.rows; i++ {
			for h.At(i, col) != 0 {
				a, b := h.At(row, col), h.At(i, col)
				if abs(b) < abs(a) || a == 0 {
					h.swapRows(row, i)
					u.swapRows(row, i)
					continue
				}
				q := b / a
				if err := addRowMultiple(h, u, i, row, -q); err != nil {
					return HNFResult{}, err
				}
			}
		}
		if h.At(row, col) < 0 {
			if err := negateRow(h, u, row); err != nil {
				return HNFResult{}, err
			}
		}
		// Reduce entries above the pivot into [0, pivot).
		piv := h.At(row, col)
		for i := 0; i < row; i++ {
			v := h.At(i, col)
			q := floorDiv(v, piv)
			if q != 0 {
				if err := addRowMultiple(h, u, i, row, -q); err != nil {
					return HNFResult{}, err
				}
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return HNFResult{H: h, U: u, PivotCols: pivots, Rank: row}, nil
}

// addRowMultiple adds k times row src to row dst of both h and u — the
// eliminations keep H = U·A this way — reporting overflow.
func addRowMultiple(h, u Mat, dst, src int, k int64) error {
	for _, m := range [2]Mat{h, u} {
		for c := 0; c < m.cols; c++ {
			prod, okMul := CheckedMul(k, m.At(src, c))
			sum, okAdd := CheckedAdd(m.At(dst, c), prod)
			if !okMul || !okAdd {
				return fmt.Errorf("%w: row operation %d += %d·row %d", ErrOverflow, dst, k, src)
			}
			m.Set(dst, c, sum)
		}
	}
	return nil
}

// negateRow negates row i of both h and u; the only unrepresentable
// negation is of MinInt64.
func negateRow(h, u Mat, i int) error {
	for _, m := range [2]Mat{h, u} {
		for c := 0; c < m.cols; c++ {
			v, ok := CheckedNeg(m.At(i, c))
			if !ok {
				return fmt.Errorf("%w: negating row %d", ErrOverflow, i)
			}
			m.Set(i, c, v)
		}
	}
	return nil
}

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// SolveIntLeftChecked solves u·A = t for an integer row vector u, where
// the rows of A generate a lattice (Theorem 3's membership test). It
// returns the coordinate vector u and true if t is in the row lattice of
// A; otherwise ok is false. When the rows of A are linearly dependent the
// returned u is one valid solution.
func SolveIntLeftChecked(a Mat, t []int64) (u []int64, ok bool, err error) {
	if len(t) != a.cols {
		return nil, false, fmt.Errorf("intmat: SolveIntLeftChecked length mismatch: %d components for %d columns", len(t), a.cols)
	}
	hr, err := HNFChecked(a)
	if err != nil {
		return nil, false, err
	}
	// Solve y·H = t by forward substitution over pivot columns, then
	// u = y·U.
	y := make([]int64, a.rows)
	rem := make([]int64, len(t))
	copy(rem, t)
	for k, col := range hr.PivotCols {
		piv := hr.H.At(k, col)
		if rem[col]%piv != 0 {
			return nil, false, nil
		}
		y[k] = rem[col] / piv
		if y[k] != 0 {
			for c := 0; c < a.cols; c++ {
				prod, okm := CheckedMul(y[k], hr.H.At(k, c))
				if !okm {
					return nil, false, fmt.Errorf("%w: forward substitution", ErrOverflow)
				}
				sum, oka := CheckedAdd(rem[c], -prod)
				if !oka || prod == math.MinInt64 {
					return nil, false, fmt.Errorf("%w: forward substitution", ErrOverflow)
				}
				rem[c] = sum
			}
		}
	}
	for _, v := range rem {
		if v != 0 {
			return nil, false, nil
		}
	}
	u, err = hr.U.MulVecChecked(y) // u = y·U
	return u, err == nil, err
}

// InRowLattice reports whether t is an integer combination of the rows of a.
func InRowLattice(a Mat, t []int64) (bool, error) {
	_, ok, err := SolveIntLeftChecked(a, t)
	return ok, err
}

// SNFResult carries the Smith normal form S = U·A·V with U, V unimodular
// and S diagonal with s₁ | s₂ | … | s_r.
type SNFResult struct {
	S Mat
	U Mat // rows(A) × rows(A), unimodular
	V Mat // cols(A) × cols(A), unimodular
	// Invariants holds the nonzero diagonal entries s₁..s_r.
	Invariants []int64
}

// SNFChecked computes the Smith normal form of m with every row and
// column operation overflow-checked. The product of the invariant factors
// is the index of the row lattice in Z^d (for full-rank square m,
// |det m|); the map i ↦ i·G is onto Z^d exactly when all invariant
// factors are 1 (the paper's Lemma 2).
func SNFChecked(m Mat) (SNFResult, error) {
	s := m.Clone()
	u := Identity(m.rows)
	v := Identity(m.cols)
	n := min(m.rows, m.cols)
	for k := 0; k < n; k++ {
		if !snfPivot(s, u, v, k) {
			break
		}
		// Eliminate row and column k beyond the pivot.
		for {
			again := false
			for i := k + 1; i < s.rows; i++ {
				for s.At(i, k) != 0 {
					q := s.At(i, k) / s.At(k, k)
					if err := addRowMultiple(s, u, i, k, -q); err != nil {
						return SNFResult{}, err
					}
					if s.At(i, k) != 0 {
						s.swapRows(k, i)
						u.swapRows(k, i)
						again = true
					}
				}
			}
			for j := k + 1; j < s.cols; j++ {
				for s.At(k, j) != 0 {
					q := s.At(k, j) / s.At(k, k)
					if err := addColMultiple(s, v, j, k, -q); err != nil {
						return SNFResult{}, err
					}
					if s.At(k, j) != 0 {
						swapCols(s, k, j)
						swapCols(v, k, j)
						again = true
					}
				}
			}
			if !again {
				break
			}
		}
		// Enforce divisibility s_k | s_{k+1}.. by folding any offender in.
		for i := k + 1; i < s.rows; i++ {
			for j := k + 1; j < s.cols; j++ {
				if s.At(i, j)%s.At(k, k) != 0 {
					// Add row i to row k, then re-eliminate.
					if err := addRowMultiple(s, u, k, i, 1); err != nil {
						return SNFResult{}, err
					}
					k--
					goto next
				}
			}
		}
		if s.At(k, k) < 0 {
			if err := negateRow(s, u, k); err != nil {
				return SNFResult{}, err
			}
		}
	next:
	}
	var inv []int64
	for k := 0; k < n; k++ {
		if d := s.At(k, k); d != 0 {
			inv = append(inv, d)
		}
	}
	return SNFResult{S: s, U: u, V: v, Invariants: inv}, nil
}

// snfPivot moves a nonzero entry from the trailing submatrix to (k,k).
// Returns false if the trailing submatrix is all zero.
func snfPivot(s, u, v Mat, k int) bool {
	for i := k; i < s.rows; i++ {
		for j := k; j < s.cols; j++ {
			if s.At(i, j) != 0 {
				if i != k {
					s.swapRows(k, i)
					u.swapRows(k, i)
				}
				if j != k {
					swapCols(s, k, j)
					swapCols(v, k, j)
				}
				return true
			}
		}
	}
	return false
}

// addColMultiple adds k times column src to column dst of both s and v,
// reporting overflow.
func addColMultiple(s, v Mat, dst, src int, k int64) error {
	for _, m := range [2]Mat{s, v} {
		for r := 0; r < m.rows; r++ {
			prod, okMul := CheckedMul(k, m.At(r, src))
			sum, okAdd := CheckedAdd(m.At(r, dst), prod)
			if !okMul || !okAdd {
				return fmt.Errorf("%w: column operation %d += %d·col %d", ErrOverflow, dst, k, src)
			}
			m.Set(r, dst, sum)
		}
	}
	return nil
}

func swapCols(m Mat, i, j int) {
	for r := 0; r < m.rows; r++ {
		vi, vj := m.At(r, i), m.At(r, j)
		m.Set(r, i, vj)
		m.Set(r, j, vi)
	}
}

// LeftNullspaceInt returns an integer basis of the left null space of m:
// row vectors n with n·m = 0. The basis is obtained from the rows of the
// HNF transform U beyond the rank (those rows of U map to zero rows of H).
// Because U is unimodular, these rows are an integral basis.
func LeftNullspaceInt(m Mat) ([][]int64, error) {
	hr, err := HNFChecked(m)
	if err != nil {
		return nil, err
	}
	var basis [][]int64
	for i := hr.Rank; i < m.rows; i++ {
		basis = append(basis, hr.U.Row(i))
	}
	return basis, nil
}

// RightNullspaceInt returns an integer basis of {x : m·xᵗ = 0} as row
// vectors, i.e. the left null space of mᵗ.
func RightNullspaceInt(m Mat) ([][]int64, error) {
	return LeftNullspaceInt(m.Transpose())
}

// IsOnto reports whether the map i ↦ i·m from Z^l to Z^d is onto, per
// Lemma 2: the columns must be independent and the gcd of the maximal-order
// subdeterminants must be 1 — equivalently, m has one Smith invariant
// factor per column and every one is 1.
func IsOnto(m Mat) (bool, error) {
	snf, err := SNFChecked(m)
	if err != nil || len(snf.Invariants) != m.cols {
		return false, err
	}
	for _, d := range snf.Invariants {
		if d != 1 {
			return false, nil
		}
	}
	return true, nil
}

// IsOneToOne reports whether the map i ↦ i·m is one-to-one, per Lemma 1:
// the rows of m must be linearly independent.
func IsOneToOne(m Mat) (bool, error) {
	r, err := m.Rank()
	return r == m.rows, err
}
