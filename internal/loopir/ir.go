// Package loopir defines the intermediate representation of the perfectly
// nested parallel loops handled by the partitioning framework (Figure 1 of
// the paper), together with a parser for a small textual loop language and
// an interpreter that replays the memory references of an iteration.
//
// The program model: an optional run of outer sequential loops (doseq),
// then a run of parallel loops (doall), then a body of assignment
// statements whose array subscripts are affine functions of the loop
// indices. Subscript functions are exposed in the paper's (G, a) form via
// Ref.Affine. Fine-grain synchronizing accumulates (Appendix A's "l$"
// references) are carried through as an Atomic flag on the statement.
package loopir

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"looppart/internal/intmat"
)

// LoopKind distinguishes parallel from sequential loops.
type LoopKind int

const (
	// Doall iterations may execute in parallel.
	Doall LoopKind = iota
	// Doseq iterations execute in order (an outer time loop, Fig. 9).
	Doseq
)

func (k LoopKind) String() string {
	if k == Doseq {
		return "doseq"
	}
	return "doall"
}

// Loop is one level of the nest: `doall (v, lo, hi)`. Bounds are inclusive
// on both ends, matching the paper's Doall (i, l, u) notation; stride is 1
// (§2.1).
type Loop struct {
	Kind LoopKind
	Var  string
	Lo   int64
	Hi   int64
	// SymHi, when non-empty, names a symbolic upper bound (`?N` in the
	// source): the extent is unknown at planning time. Hi then holds the
	// placeholder Lo so accidental concrete consumers see a one-iteration
	// range rather than garbage; strategies that require concrete extents
	// must reject nests with symbolic loops (Nest.Symbolic).
	SymHi string
}

// Extent returns the number of iterations of the loop (hi − lo + 1).
func (l Loop) Extent() int64 { return l.Hi - l.Lo + 1 }

// Nest is a perfect loop nest with a flat body.
type Nest struct {
	Loops []Loop
	Body  []Stmt
}

// Stmt is an assignment `lhs = rhs`, optionally an atomic accumulate
// (`l$lhs = lhs + …`, Appendix A).
type Stmt struct {
	LHS    Ref
	RHS    Expr
	Atomic bool
}

// Ref is one array reference A[e₁, …, e_d].
type Ref struct {
	Array string
	Subs  []AffineExpr
}

// Dim returns the dimensionality of the referenced array.
func (r Ref) Dim() int { return len(r.Subs) }

// AffineExpr is a subscript expression Σ coef·var + Const.
type AffineExpr struct {
	// Coef maps a loop variable name to its integer coefficient.
	// Variables with zero coefficient are absent.
	Coef  map[string]int64
	Const int64
}

// NewAffine returns the affine expression with the given constant term.
func NewAffine(c int64) AffineExpr {
	return AffineExpr{Coef: map[string]int64{}, Const: c}
}

// AddTerm adds coef·v to the expression.
func (e AffineExpr) AddTerm(v string, coef int64) AffineExpr {
	out := e.clone()
	out.Coef[v] += coef
	if out.Coef[v] == 0 {
		delete(out.Coef, v)
	}
	return out
}

func (e AffineExpr) clone() AffineExpr {
	c := make(map[string]int64, len(e.Coef))
	for k, v := range e.Coef {
		c[k] = v
	}
	return AffineExpr{Coef: c, Const: e.Const}
}

// Add returns e + f.
func (e AffineExpr) Add(f AffineExpr) AffineExpr {
	out := e.clone()
	out.Const += f.Const
	for v, c := range f.Coef {
		out.Coef[v] += c
		if out.Coef[v] == 0 {
			delete(out.Coef, v)
		}
	}
	return out
}

// Neg returns −e.
func (e AffineExpr) Neg() AffineExpr {
	out := e.clone()
	out.Const = -out.Const
	for v := range out.Coef {
		out.Coef[v] = -out.Coef[v]
	}
	return out
}

// ScaleBy returns k·e.
func (e AffineExpr) ScaleBy(k int64) AffineExpr {
	out := e.clone()
	out.Const *= k
	for v := range out.Coef {
		out.Coef[v] *= k
		if out.Coef[v] == 0 {
			delete(out.Coef, v)
		}
	}
	return out
}

// Eval evaluates the expression under a variable binding.
// Unbound variables with nonzero coefficient cause a panic.
func (e AffineExpr) Eval(env map[string]int64) int64 {
	v := e.Const
	for name, c := range e.Coef {
		val, ok := env[name]
		if !ok {
			panic(fmt.Sprintf("loopir: unbound loop variable %q", name))
		}
		v += c * val
	}
	return v
}

// IsConst reports whether the expression has no variable terms.
func (e AffineExpr) IsConst() bool { return len(e.Coef) == 0 }

// String renders the expression in canonical variable order.
func (e AffineExpr) String() string {
	vars := make([]string, 0, len(e.Coef))
	for v := range e.Coef {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	first := true
	for _, v := range vars {
		c := e.Coef[v]
		switch {
		case first && c == 1:
			b.WriteString(v)
		case first && c == -1:
			b.WriteString("-" + v)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			b.WriteString("+" + v)
		case c == -1:
			b.WriteString("-" + v)
		case c > 0:
			fmt.Fprintf(&b, "+%d*%s", c, v)
		default:
			fmt.Fprintf(&b, "%d*%s", c, v)
		}
		first = false
	}
	if e.Const != 0 || first {
		if !first && e.Const > 0 {
			b.WriteString("+")
		}
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}

// String renders the reference as A[e1,e2,...].
func (r Ref) String() string {
	subs := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		subs[i] = s.String()
	}
	return r.Array + "[" + strings.Join(subs, ",") + "]"
}

// Affine converts the reference to the paper's (G, a) pair with respect to
// the ordered list of loop variables: G is l×d with G[r][c] the coefficient
// of vars[r] in subscript c, and a is the constant offset vector (Eq. 1).
// Variables not in vars must not appear; an error is returned if they do.
func (r Ref) Affine(vars []string) (intmat.Mat, []int64, error) {
	index := make(map[string]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	g := intmat.NewMat(len(vars), len(r.Subs))
	a := make([]int64, len(r.Subs))
	for c, sub := range r.Subs {
		a[c] = sub.Const
		for v, coef := range sub.Coef {
			row, ok := index[v]
			if !ok {
				return intmat.Mat{}, nil, fmt.Errorf("loopir: reference %s uses variable %q outside the doall nest", r, v)
			}
			g.Set(row, c, coef)
		}
	}
	return g, a, nil
}

// DoallVars returns the variables of the parallel loops, outermost first.
func (n *Nest) DoallVars() []string {
	var vars []string
	for _, l := range n.Loops {
		if l.Kind == Doall {
			vars = append(vars, l.Var)
		}
	}
	return vars
}

// DoallLoops returns the parallel loops, outermost first.
func (n *Nest) DoallLoops() []Loop {
	var ls []Loop
	for _, l := range n.Loops {
		if l.Kind == Doall {
			ls = append(ls, l)
		}
	}
	return ls
}

// Symbolic reports whether any loop's upper bound is symbolic (`?N`):
// the nest's extents are unknown at planning time.
func (n *Nest) Symbolic() bool {
	for _, l := range n.Loops {
		if l.SymHi != "" {
			return true
		}
	}
	return false
}

// SeqLoops returns the sequential loops, outermost first.
func (n *Nest) SeqLoops() []Loop {
	var ls []Loop
	for _, l := range n.Loops {
		if l.Kind == Doseq {
			ls = append(ls, l)
		}
	}
	return ls
}

// Access is one array reference occurrence in the body with its role.
type Access struct {
	Ref    Ref
	Write  bool
	Atomic bool // synchronizing reference (Appendix A): treated as a write
}

// Accesses lists every reference occurrence in the body, writes first
// within each statement (matching execution order read-RHS-then-write-LHS
// is immaterial to footprint analysis; the simulator replays reads before
// the write).
func (n *Nest) Accesses() []Access {
	var out []Access
	for _, s := range n.Body {
		for _, r := range refsOf(s.RHS) {
			out = append(out, Access{Ref: r, Write: false, Atomic: false})
		}
		if s.Atomic {
			// An atomic accumulate also reads its target.
			out = append(out, Access{Ref: s.LHS, Write: false, Atomic: true})
		}
		out = append(out, Access{Ref: s.LHS, Write: true, Atomic: s.Atomic})
	}
	return out
}

// Arrays returns the distinct array names referenced, sorted.
func (n *Nest) Arrays() []string {
	set := map[string]bool{}
	for _, a := range n.Accesses() {
		set[a.Ref.Array] = true
	}
	names := make([]string, 0, len(set))
	for a := range set {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

// Validate checks structural invariants: distinct loop variables, no doseq
// nested inside doall, at least one doall, nonempty body, loop bounds
// ordered, and subscript variables drawn from the loop nest.
func (n *Nest) Validate() error {
	if len(n.Body) == 0 {
		return fmt.Errorf("loopir: empty loop body")
	}
	seen := map[string]bool{}
	sawDoall := false
	points := int64(1) // doall iterations, for the overflow check below
	for _, l := range n.Loops {
		if seen[l.Var] {
			return fmt.Errorf("loopir: duplicate loop variable %q", l.Var)
		}
		seen[l.Var] = true
		if l.SymHi == "" && l.Hi < l.Lo {
			return fmt.Errorf("loopir: loop %s has empty range [%d,%d]", l.Var, l.Lo, l.Hi)
		}
		switch l.Kind {
		case Doall:
			sawDoall = true
			if l.SymHi != "" {
				break
			}
			// Every partition search sizes its tiles from the doall
			// space's extents and point count, so both must fit in int64.
			ok := uint64(l.Hi)-uint64(l.Lo) < math.MaxInt64 // Hi−Lo, exact in uint64
			if ok {
				points, ok = intmat.CheckedMul(points, l.Extent())
			}
			if !ok {
				return fmt.Errorf("%w: the doall iteration space through loop %s has more than 2^63-1 points", intmat.ErrOverflow, l.Var)
			}
		case Doseq:
			if sawDoall {
				return fmt.Errorf("loopir: doseq %q nested inside doall", l.Var)
			}
		}
	}
	if !sawDoall {
		return fmt.Errorf("loopir: nest has no doall loop")
	}
	for _, acc := range n.Accesses() {
		for _, sub := range acc.Ref.Subs {
			for v := range sub.Coef {
				if !seen[v] {
					return fmt.Errorf("loopir: reference %s uses unknown variable %q", acc.Ref, v)
				}
			}
		}
	}
	return nil
}

// String pretty-prints the nest in the source language.
func (n *Nest) String() string {
	var b strings.Builder
	for depth, l := range n.Loops {
		b.WriteString(strings.Repeat("  ", depth))
		if l.SymHi != "" {
			fmt.Fprintf(&b, "%s (%s, %d, ?%s)\n", l.Kind, l.Var, l.Lo, l.SymHi)
		} else {
			fmt.Fprintf(&b, "%s (%s, %d, %d)\n", l.Kind, l.Var, l.Lo, l.Hi)
		}
	}
	indent := strings.Repeat("  ", len(n.Loops))
	for _, s := range n.Body {
		b.WriteString(indent)
		if s.Atomic {
			b.WriteString("l$")
		}
		fmt.Fprintf(&b, "%s = %s\n", s.LHS, exprString(s.RHS))
	}
	for depth := len(n.Loops) - 1; depth >= 0; depth-- {
		b.WriteString(strings.Repeat("  ", depth))
		if n.Loops[depth].Kind == Doseq {
			b.WriteString("enddoseq\n")
		} else {
			b.WriteString("enddoall\n")
		}
	}
	return b.String()
}
