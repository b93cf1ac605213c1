package cachesim

import (
	"fmt"

	"looppart/internal/layout"
	"looppart/internal/loopir"
)

// Line-granular simulation: the paper assumes unit cache lines and notes
// that longer lines can be included as in Abraham–Hudak [6]. Mapping every
// array element to an address (package layout) and caching line numbers
// instead of elements does exactly that — spatial locality along the
// row-major storage order then shows up as fewer misses, and false
// sharing of boundary lines as extra coherence traffic.

// RunNestLines replays the nest like RunNest but at cache-line granularity
// under the given memory map.
func RunNestLines(m *Machine, n *loopir.Nest, assign func(p []int64) int, mm *layout.MemoryMap) error {
	return m.replay(n, assign, func(r loopir.MemRef) (int32, error) {
		line, err := mm.LineOf(r.Array, r.Index)
		if err != nil {
			return 0, err
		}
		return m.internLine(line), nil
	})
}

// ReplayPoints replays the references of the given iteration points on one
// processor, in the order given. It exposes iteration-order effects that
// only matter for finite caches (§2.2: with small caches the tile is
// subdivided, not reshaped). extra supplies sequential-loop bindings.
func ReplayPoints(m *Machine, n *loopir.Nest, proc int, points [][]int64, extra map[string]int64) error {
	if proc < 0 || proc >= m.cfg.Procs {
		return fmt.Errorf("cachesim: processor %d of %d", proc, m.cfg.Procs)
	}
	vars := n.DoallVars()
	for _, p := range points {
		if len(p) != len(vars) {
			return fmt.Errorf("cachesim: point %v has %d coordinates, want %d", p, len(p), len(vars))
		}
		env := make(map[string]int64, len(vars)+len(extra))
		for k, v := range extra {
			env[k] = v
		}
		for k, v := range vars {
			env[v] = p[k]
		}
		for _, mr := range n.TraceIteration(env) {
			m.AccessDatum(proc, mr.Array, mr.Index, mr.Write, mr.Atomic)
		}
	}
	return nil
}
