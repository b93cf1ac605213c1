package verify

import (
	"fmt"
	"math/big"

	"looppart/internal/intmat"
	"looppart/internal/lattice"
)

// Algebraic invariants of the integer core. Each check returns nil when
// the invariant holds and a descriptive error otherwise; the property
// tests and fuzz targets call these over randomized inputs.

// CheckHNF asserts the contract of the row Hermite normal form of a:
//
//	H = U·A with U unimodular (|det U| = 1),
//	H in row echelon form with positive pivots,
//	entries below each pivot zero and entries above reduced into [0, pivot).
func CheckHNF(a intmat.Mat) error {
	hr, err := intmat.HNFChecked(a)
	if err != nil {
		// Overflow is a legal outcome for adversarial inputs — the
		// invariant is that it is *reported*, never silent.
		return nil
	}
	// The product is evaluated over big.Int: U·A equals the (representable)
	// H, but intermediate products of large transform coefficients can
	// exceed int64 even so.
	if !bigEqualsMat(bigProduct(hr.U, a), hr.H) {
		return fmt.Errorf("verify: H != U·A\nH = %v\nU = %v\nA = %v", hr.H, hr.U, a)
	}
	if !hr.U.IsUnimodular() {
		return fmt.Errorf("verify: HNF transform U = %v is not unimodular", hr.U)
	}
	if len(hr.PivotCols) != hr.Rank {
		return fmt.Errorf("verify: %d pivot columns for rank %d", len(hr.PivotCols), hr.Rank)
	}
	prevCol := -1
	for k, col := range hr.PivotCols {
		if col <= prevCol {
			return fmt.Errorf("verify: pivot columns %v not strictly increasing", hr.PivotCols)
		}
		prevCol = col
		piv := hr.H.At(k, col)
		if piv <= 0 {
			return fmt.Errorf("verify: pivot H[%d][%d] = %d not positive", k, col, piv)
		}
		// Entries below the pivot must be zero; the whole rows beyond the
		// rank must be zero.
		for i := k + 1; i < hr.H.Rows(); i++ {
			if hr.H.At(i, col) != 0 {
				return fmt.Errorf("verify: nonzero entry H[%d][%d] below pivot row %d", i, col, k)
			}
		}
		// Entries above the pivot reduced into [0, pivot).
		for i := 0; i < k; i++ {
			if v := hr.H.At(i, col); v < 0 || v >= piv {
				return fmt.Errorf("verify: H[%d][%d] = %d not reduced into [0, %d)", i, col, v, piv)
			}
		}
		// Echelon: entries left of the pivot in the pivot row are zero.
		for j := 0; j < col; j++ {
			if hr.H.At(k, j) != 0 {
				return fmt.Errorf("verify: nonzero entry H[%d][%d] left of pivot column %d", k, j, col)
			}
		}
	}
	for i := hr.Rank; i < hr.H.Rows(); i++ {
		for j := 0; j < hr.H.Cols(); j++ {
			if hr.H.At(i, j) != 0 {
				return fmt.Errorf("verify: nonzero entry H[%d][%d] beyond rank %d", i, j, hr.Rank)
			}
		}
	}
	return nil
}

// CheckSNF asserts the contract of the Smith normal form of a:
//
//	S = U·A·V with U, V unimodular, S diagonal,
//	and the invariant factors satisfy s₁ | s₂ | … | s_r with sᵢ > 0.
func CheckSNF(a intmat.Mat) error {
	sr, err := intmat.SNFChecked(a)
	if err != nil {
		return nil // reported overflow is a legal outcome
	}
	// Over big.Int: U·A·V equals the (representable) S, but the
	// intermediate U·A routinely exceeds int64 for adversarial inputs.
	if !bigEqualsMat(bigProduct(sr.U, a, sr.V), sr.S) {
		return fmt.Errorf("verify: S != U·A·V\nS = %v\nU = %v\nA = %v\nV = %v", sr.S, sr.U, a, sr.V)
	}
	if !sr.U.IsUnimodular() {
		return fmt.Errorf("verify: SNF transform U = %v is not unimodular", sr.U)
	}
	if !sr.V.IsUnimodular() {
		return fmt.Errorf("verify: SNF transform V = %v is not unimodular", sr.V)
	}
	for i := 0; i < sr.S.Rows(); i++ {
		for j := 0; j < sr.S.Cols(); j++ {
			if i != j && sr.S.At(i, j) != 0 {
				return fmt.Errorf("verify: S not diagonal at (%d,%d)", i, j)
			}
		}
	}
	for k, inv := range sr.Invariants {
		if inv <= 0 {
			return fmt.Errorf("verify: invariant factor s%d = %d not positive", k+1, inv)
		}
		if k > 0 && inv%sr.Invariants[k-1] != 0 {
			return fmt.Errorf("verify: divisibility chain broken: s%d = %d does not divide s%d = %d",
				k, sr.Invariants[k-1], k+1, inv)
		}
	}
	return nil
}

// bigProduct multiplies the matrices left to right over big.Int, immune
// to intermediate overflow.
func bigProduct(ms ...intmat.Mat) [][]*big.Int {
	cur := bigOf(ms[0])
	for _, m := range ms[1:] {
		nxt := bigOf(m)
		out := make([][]*big.Int, len(cur))
		for i := range cur {
			out[i] = make([]*big.Int, m.Cols())
			for j := range out[i] {
				s := new(big.Int)
				for k := range nxt {
					s.Add(s, new(big.Int).Mul(cur[i][k], nxt[k][j]))
				}
				out[i][j] = s
			}
		}
		cur = out
	}
	return cur
}

func bigOf(m intmat.Mat) [][]*big.Int {
	out := make([][]*big.Int, m.Rows())
	for i := range out {
		out[i] = make([]*big.Int, m.Cols())
		for j := range out[i] {
			out[i][j] = big.NewInt(m.At(i, j))
		}
	}
	return out
}

func bigEqualsMat(p [][]*big.Int, m intmat.Mat) bool {
	if len(p) != m.Rows() {
		return false
	}
	for i := range p {
		if len(p[i]) != m.Cols() {
			return false
		}
		for j := range p[i] {
			if !p[i][j].IsInt64() || p[i][j].Int64() != m.At(i, j) {
				return false
			}
		}
	}
	return true
}

// CheckTheorem3 asserts the bounded-lattice intersection test against a
// brute-force walk: the lattice with generators gen and bounds λ intersects
// its translation by t iff some integer u with |uᵢ| ≤ λᵢ has u·gen = t.
// The walk is exponential in the generator count; callers keep gen small.
func CheckTheorem3(gen intmat.Mat, bounds []int64, t []int64) error {
	if indep, err := intmat.IsOneToOne(gen); err != nil || !indep {
		// With dependent generators the coordinate vector is not unique and
		// the closed-form test does not apply (the analysis reduces to
		// independent columns first, §3.4.1); an elimination beyond int64
		// leaves nothing to compare.
		return nil
	}
	b := lattice.New(gen, bounds)
	_, got, err := b.IntersectsTranslate(t)
	if err != nil {
		return nil // unrepresentable coordinates: nothing to compare
	}
	want := bruteForceIntersects(gen, bounds, t)
	if got != want {
		return fmt.Errorf("verify: Theorem 3 disagrees with brute force for gen=%v bounds=%v t=%v: model=%v brute=%v",
			gen, bounds, t, got, want)
	}
	return nil
}

// bruteForceIntersects searches the coefficient box [-λ, λ]ⁿ exhaustively.
func bruteForceIntersects(gen intmat.Mat, bounds []int64, t []int64) bool {
	n := gen.Rows()
	coef := make([]int64, n)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			q, err := gen.MulVecChecked(coef)
			if err != nil {
				return false
			}
			for j := range q {
				if q[j] != t[j] {
					return false
				}
			}
			return true
		}
		for v := -bounds[k]; v <= bounds[k]; v++ {
			coef[k] = v
			if rec(k + 1) {
				return true
			}
		}
		coef[k] = 0
		return false
	}
	return rec(0)
}
