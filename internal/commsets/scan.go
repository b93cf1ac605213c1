package commsets

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
)

// The scan engine: the exact fallback for plans the analytic engine
// cannot express as box algebra (parallelepiped tiles, slab partitions,
// rank-deficient reference matrices). One budget-gated pass over the
// iteration space routes every touched element — identified by its data
// coordinates — to the writer/reader processor sets the tiling's
// membership function induces.

// elemRec accumulates one element's epoch-level access pattern.
type elemRec struct {
	writers procSet
	readers procSet
	writes  int64 // write multiplicity per epoch
	coords  []int64
}

// procSet is a processor bitset.
type procSet []uint64

func newProcSet(procs int) procSet { return make(procSet, (procs+63)/64) }

func (s procSet) set(p int) { s[p/64] |= 1 << (p % 64) }

func (s procSet) forEach(fn func(p int)) {
	for w, word := range s {
		for word != 0 {
			b := word & (-word)
			fn(w*64 + bits.TrailingZeros64(b))
			word ^= b
		}
	}
}

// scanClasses runs the scan engine over the classes in idx, filling
// their entries of a.Classes. Returns the number of (point, reference)
// pairs visited.
func scanClasses(spec Spec, idx []int, opts Options, a *Analysis) (int64, error) {
	if spec.Assign == nil {
		return 0, fmt.Errorf("commsets: plan needs the scan engine but Spec.Assign is nil")
	}
	budget := opts.PointBudget
	if budget <= 0 {
		budget = DefaultPointBudget
	}
	size := spec.Space.Size()
	refs := 0
	for _, ci := range idx {
		refs += len(spec.Analysis.Classes[ci].Refs)
	}
	if size <= 0 || refs == 0 {
		for _, ci := range idx {
			a.Classes[ci] = ClassComm{Array: spec.Analysis.Classes[ci].Array, Class: ci, Method: "scan"}
		}
		return 0, nil
	}
	if size > budget/int64(refs) {
		return 0, fmt.Errorf("commsets: scan of %d points × %d refs exceeds the %d-point budget", size, refs, budget)
	}

	type classState struct {
		c     *footprint.Class
		elems map[string]*elemRec
	}
	states := make([]classState, len(idx))
	for i, ci := range idx {
		states[i] = classState{c: &spec.Analysis.Classes[ci], elems: map[string]*elemRec{}}
	}

	var visited int64
	var key []byte
	var err error
	spec.Space.ForEach(func(p []int64) bool {
		proc := spec.Assign(p)
		for i := range states {
			st := &states[i]
			for ri := range st.c.Refs {
				r := &st.c.Refs[ri]
				visited++
				var d []int64
				if d, err = dataCoords(r.G, r.A, p); err != nil {
					return false
				}
				key = appendElemKey(key[:0], d)
				rec, ok := st.elems[string(key)]
				if !ok {
					rec = &elemRec{
						writers: newProcSet(spec.Procs),
						readers: newProcSet(spec.Procs),
						coords:  d,
					}
					st.elems[string(key)] = rec
				}
				if isWriter(r) {
					rec.writers.set(proc)
					mult := int64(r.Writes)
					if r.Atomic && mult == 0 {
						mult = 1
					}
					rec.writes += mult
				}
				if isReader(r) {
					rec.readers.set(proc)
				}
			}
		}
		return true
	})
	if err != nil {
		return 0, err
	}

	for i, ci := range idx {
		st := &states[i]
		cc := ClassComm{Array: st.c.Array, Class: ci, Method: "scan"}
		pair := map[[2]int]*Transfer{}
		if opts.Materialize {
			cc.owned = make([][]Elem, spec.Procs)
		}
		for _, rec := range st.elems {
			if rec.writes > 1 {
				a.UniqueWrite = false
			}
			rec.writers.forEach(func(w int) {
				if opts.Materialize {
					cc.owned[w] = append(cc.owned[w], Elem{Array: st.c.Array, Index: rec.coords})
				}
				rec.readers.forEach(func(r int) {
					if r == w {
						return
					}
					k := [2]int{w, r}
					t, ok := pair[k]
					if !ok {
						t = &Transfer{From: w, To: r}
						pair[k] = t
					}
					t.Words++
					if opts.Materialize {
						t.Elems = append(t.Elems, Elem{Array: st.c.Array, Index: rec.coords})
					}
				})
			})
		}
		for _, t := range pair {
			cc.Transfers = append(cc.Transfers, *t)
			cc.Words += t.Words
		}
		sort.Slice(cc.Transfers, func(i, j int) bool {
			if cc.Transfers[i].From != cc.Transfers[j].From {
				return cc.Transfers[i].From < cc.Transfers[j].From
			}
			return cc.Transfers[i].To < cc.Transfers[j].To
		})
		if opts.Materialize {
			sortElems(cc.owned)
			for ti := range cc.Transfers {
				sortElemList(cc.Transfers[ti].Elems)
			}
		}
		a.Classes[ci] = cc
		scanBackwardRAW(st.c, &cc, a)
	}
	return visited, nil
}

// scanBackwardRAW conservatively flags same-epoch cross-processor reads
// of earlier writes for a scan-engine class: when any (writer, reader)
// offset pair is lexicographically backward — or cannot be resolved
// because G is rank-deficient or its elimination overflows int64 — any
// cross-processor transfer in the class may carry a backward dependence.
func scanBackwardRAW(c *footprint.Class, cc *ClassComm, a *Analysis) {
	if cc.Words == 0 || a.BackwardRAW {
		return
	}
	base := c.Refs[0].A
	oneToOne, err := intmat.IsOneToOne(c.G)
	oneToOne = oneToOne && err == nil
	var writers, readers [][]int64
	for i := range c.Refs {
		r := &c.Refs[i]
		diff := make([]int64, len(base))
		for k := range diff {
			diff[k] = r.A[k] - base[k]
		}
		u, ok, err := intmat.SolveIntLeftChecked(c.G, diff)
		if !ok || err != nil || !oneToOne {
			u = nil
		}
		if isWriter(r) {
			writers = append(writers, u)
		}
		if isReader(r) {
			readers = append(readers, u)
		}
	}
	for _, uw := range writers {
		for _, ur := range readers {
			if uw == nil || ur == nil {
				a.BackwardRAW = true
				return
			}
			delta := make([]int64, len(uw))
			for k := range delta {
				delta[k] = ur[k] - uw[k]
			}
			if lexNeg(delta) {
				a.BackwardRAW = true
				return
			}
		}
	}
}

// dataCoords evaluates d = p·G + a exactly; a coordinate beyond int64 is
// an error wrapping intmat.ErrOverflow.
func dataCoords(g intmat.Mat, a, p []int64) ([]int64, error) {
	d := make([]int64, len(a))
	if err := g.MulVecInto(p, d); err != nil {
		return nil, err
	}
	for j := range d {
		var ok bool
		if d[j], ok = intmat.CheckedAdd(d[j], a[j]); !ok {
			return nil, fmt.Errorf("%w: data coordinate %d", intmat.ErrOverflow, j)
		}
	}
	return d, nil
}

func appendElemKey(b []byte, d []int64) []byte {
	for _, v := range d {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func sortElems(owned [][]Elem) {
	for p := range owned {
		sortElemList(owned[p])
	}
}

func sortElemList(elems []Elem) {
	sort.Slice(elems, func(i, j int) bool {
		a, b := elems[i], elems[j]
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		for k := range a.Index {
			if a.Index[k] != b.Index[k] {
				return a.Index[k] < b.Index[k]
			}
		}
		return false
	})
}
