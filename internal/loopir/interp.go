package loopir

// MemRef is one concrete memory reference produced by replaying an
// iteration: the array, the integer index tuple, and the access type.
type MemRef struct {
	Array  string
	Index  []int64
	Write  bool
	Atomic bool
}

// TraceIteration replays the references of the loop body for one concrete
// iteration (env binds every loop variable) in program order: for each
// statement, RHS reads left to right, then the LHS write (with an extra
// synchronizing read first for atomic accumulates).
func (n *Nest) TraceIteration(env map[string]int64) []MemRef {
	var out []MemRef
	evalRef := func(r Ref, write, atomic bool) MemRef {
		idx := make([]int64, len(r.Subs))
		for k, s := range r.Subs {
			idx[k] = s.Eval(env)
		}
		return MemRef{Array: r.Array, Index: idx, Write: write, Atomic: atomic}
	}
	for _, s := range n.Body {
		for _, r := range refsOf(s.RHS) {
			out = append(out, evalRef(r, false, false))
		}
		if s.Atomic {
			out = append(out, evalRef(s.LHS, false, true))
		}
		out = append(out, evalRef(s.LHS, true, s.Atomic))
	}
	return out
}

// ForEachIteration enumerates every point of the doall iteration space
// (sequential loops excluded) in lexicographic order, invoking fn with an
// environment binding the doall variables. Returning false from fn stops
// the walk.
func (n *Nest) ForEachIteration(fn func(env map[string]int64) bool) {
	loops := n.DoallLoops()
	odometer(loops, func(p []int64) bool {
		env := make(map[string]int64, len(loops))
		for k, l := range loops {
			env[l.Var] = p[k]
		}
		return fn(env)
	})
}

// odometer calls fn with every point of the box the loops span, in
// lexicographic order — one empty point when there are no loops. p is
// reused between calls. Returning false from fn stops the walk.
func odometer(loops []Loop, fn func(p []int64) bool) {
	p := make([]int64, len(loops))
	for k, l := range loops {
		p[k] = l.Lo
	}
	for fn(p) {
		k := len(loops) - 1
		for ; k >= 0; k-- {
			p[k]++
			if p[k] <= loops[k].Hi {
				break
			}
			p[k] = loops[k].Lo
		}
		if k < 0 {
			return
		}
	}
}

// IterationCount returns the number of points in the doall iteration space.
func (n *Nest) IterationCount() int64 {
	total := int64(1)
	for _, l := range n.DoallLoops() {
		total *= l.Extent()
	}
	return total
}
