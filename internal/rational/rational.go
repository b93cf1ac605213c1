// Package rational implements exact arithmetic on rational numbers with
// int64 numerators and denominators.
//
// The loop-partitioning analysis manipulates tile matrices, their inverses,
// and determinant cofactors. Floating point is unacceptable there: deciding
// whether a reference matrix is unimodular, whether an offset vector lies on
// a lattice, or whether two candidate tiles have exactly equal footprint
// sizes all require exact comparisons. math/big would work but is heap-heavy
// for the small magnitudes that occur in tile matrices; this package keeps
// everything in registers and panics on int64 overflow. Request-sized
// subscripts do overflow it, so the analysis keeps Rat off every path a
// subscript reaches: rank, independent columns, lattice membership and the
// Theorem 4 solve all run on intmat's overflow-checked integer
// eliminations. What remains on Rat — tile inversion and the polytope
// bounds of skewed tiles — sees only tile entries, which overflow only at
// extents near 2³¹ and above.
package rational

import (
	"fmt"
	"math"
)

// Rat is an exact rational number. The zero value is 0/1, i.e. zero.
// Rats are immutable values; all methods return new values.
//
// Invariant: Den > 0 and gcd(|Num|, Den) == 1, except that the zero value
// (0, 0) is also accepted everywhere and treated as 0/1. Construct with New
// or FromInt to get canonical form.
type Rat struct {
	num int64
	den int64
}

// New returns the canonical rational num/den. It panics if den == 0.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	if den < 0 {
		num, den = checkedNeg(num), checkedNeg(den)
	}
	g := GCD(abs64(num), den)
	if g > 1 {
		num /= g
		den /= g
	}
	return Rat{num, den}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Zero and One are the usual constants.
var (
	Zero = Rat{0, 1}
	One  = Rat{1, 1}
)

// Num returns the canonical (sign-carrying) numerator.
func (r Rat) Num() int64 { return r.num }

// Den returns the canonical (positive) denominator.
func (r Rat) Den() int64 {
	if r.den == 0 {
		return 1 // zero value
	}
	return r.den
}

func (r Rat) norm() Rat {
	if r.den == 0 {
		return Rat{r.num, 1}
	}
	return r
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.Den() == 1 }

// Int returns the integer value of r. It panics if r is not an integer.
func (r Rat) Int() int64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("rational: %s is not an integer", r))
	}
	return r.num
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num < 0:
		return -1
	case r.num > 0:
		return 1
	default:
		return 0
	}
}

// Neg returns -r.
func (r Rat) Neg() Rat {
	r = r.norm()
	return Rat{checkedNeg(r.num), r.den}
}

// Abs returns |r|.
func (r Rat) Abs() Rat {
	if r.num < 0 {
		return r.Neg()
	}
	return r.norm()
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// num = r.num*s.den + s.num*r.den; den = r.den*s.den, reduced.
	g := GCD(r.den, s.den)
	rd := r.den / g
	sd := s.den / g
	num := checkedAdd(checkedMul(r.num, sd), checkedMul(s.num, rd))
	den := checkedMul(checkedMul(rd, g), sd)
	return New(num, den)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Cross-reduce before multiplying to keep magnitudes small.
	g1 := GCD(abs64(r.num), s.den)
	g2 := GCD(abs64(s.num), r.den)
	num := checkedMul(r.num/g1, s.num/g2)
	den := checkedMul(r.den/g2, s.den/g1)
	return Rat{num, den}
}

// Div returns r / s. It panics if s == 0.
func (r Rat) Div(s Rat) Rat {
	if s.IsZero() {
		panic("rational: division by zero")
	}
	return r.Mul(s.Inv())
}

// Inv returns 1/r. It panics if r == 0.
func (r Rat) Inv() Rat {
	if r.IsZero() {
		panic("rational: inverse of zero")
	}
	r = r.norm()
	if r.num < 0 {
		return Rat{checkedNeg(r.den), checkedNeg(r.num)}
	}
	return Rat{r.den, r.num}
}

// Cmp compares r and s, returning -1, 0, or +1.
func (r Rat) Cmp(s Rat) int {
	return r.Sub(s).Sign()
}

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// Floor returns the greatest integer <= r.
func (r Rat) Floor() int64 {
	r = r.norm()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns the least integer >= r.
func (r Rat) Ceil() int64 {
	r = r.norm()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// String renders r as "n" or "n/d".
func (r Rat) String() string {
	if r.Den() == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}

// GCD returns the greatest common divisor of a and b, treating negatives by
// absolute value. GCD(0, 0) == 0.
func GCD(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b; LCM with 0 is 0.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return abs64(checkedMul(a/GCD(a, b), b))
}

// ExtGCD returns (g, x, y) such that a*x + b*y == g == gcd(a, b).
// Signs follow the classical extended Euclid recurrence; g >= 0 unless
// both inputs are zero (then g == 0).
func ExtGCD(a, b int64) (g, x, y int64) {
	if b == 0 {
		switch {
		case a < 0:
			return -a, -1, 0
		case a > 0:
			return a, 1, 0
		default:
			return 0, 0, 0
		}
	}
	g, x1, y1 := ExtGCD(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

func abs64(a int64) int64 {
	if a < 0 {
		if a == math.MinInt64 {
			panic("rational: int64 overflow in abs")
		}
		return -a
	}
	return a
}

func checkedNeg(a int64) int64 {
	if a == math.MinInt64 {
		panic("rational: int64 overflow in negation")
	}
	return -a
}

func checkedAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		panic("rational: int64 overflow in addition")
	}
	return s
}

func checkedMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		panic("rational: int64 overflow in multiplication")
	}
	return p
}
