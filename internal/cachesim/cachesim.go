// Package cachesim simulates the system model of §2.2: P processors, each
// with a coherent cache, backed by uniform-access main memory over an
// interconnect (Figure 2). It replays the memory references of a
// partitioned loop nest and accounts for the events the paper's analysis
// predicts: cold (first-reference) misses, coherence misses and
// invalidations, and the total network traffic.
//
// The coherence protocol is a directory-based MSI over unit-length cache
// lines (the paper's assumption; larger lines are a straightforward
// extension it cites from Abraham and Hudak). Caches are infinite by
// default — the paper's operating regime, where tile footprints fit — but
// a finite LRU capacity can be configured to study the small-cache case.
//
// Data are identified internally by dense int32 IDs from an intern table,
// not by key strings: replaying a nest touches the same few thousand data
// millions of times, and formatting "A[i,j]" plus hashing it on every
// access dominated the simulation. Structured references intern on the
// (array, index) value; the key string is materialized lazily, only when a
// MissCost hook actually asks for it.
package cachesim

import (
	"fmt"
	"strconv"

	"looppart/internal/loopir"
)

// Config parameterizes a simulation.
type Config struct {
	Procs int
	// CacheLines bounds each processor cache in lines; 0 means infinite
	// (the paper's model).
	CacheLines int
	// ExpectedData sizes the directory, intern table, and census up front.
	// The footprint model predicts it (cumulative footprint ≈ distinct
	// data); 0 falls back to growth by doubling.
	ExpectedData int
	// CostCacheHit, CostMemory, CostAtomic are the charge-per-access
	// weights used for the Cost metric. Main memory is "much higher"
	// than cache (§2.2); synchronizing references are "slightly more
	// expensive communication than usual" (Appendix A).
	CostCacheHit float64
	CostMemory   float64
	CostAtomic   float64
	// MissCost, when non-nil, overrides CostMemory/CostAtomic for miss
	// fills: it returns the access cost and the network hop count for
	// processor proc reaching datum's home memory. This is how the
	// distributed-memory (Alewife mesh) model plugs in; the uniform
	// model of Figure 2 leaves it nil.
	MissCost func(proc int, datum string, atomic bool) (cost float64, hops int64)
}

// ExpectedData sizes Config.ExpectedData from the footprint model's
// per-processor prediction: the footprint times the processor count
// bounds the distinct data from above (sharing only shrinks it). The cap
// keeps a mis-prediction from ballooning memory.
func ExpectedData(predictedFootprint float64, procs int) int {
	if predictedFootprint <= 0 {
		return 0
	}
	n := predictedFootprint * float64(procs)
	const maxHint = 1 << 20
	if n > maxHint {
		return maxHint
	}
	return int(n)
}

// DefaultConfig mirrors the paper's qualitative model: memory 20× a cache
// hit, synchronizing traffic 1.5× ordinary memory traffic.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:        procs,
		CacheLines:   0,
		CostCacheHit: 1,
		CostMemory:   20,
		CostAtomic:   30,
	}
}

// lineState is the directory state of one datum.
type lineState struct {
	// sharers is the set of processors with a valid copy.
	sharers procSet
	// owner is the last writer, -1 if the line is clean-shared.
	owner int32
}

// Metrics aggregates the simulation counters.
type Metrics struct {
	Procs int
	// Accesses is the total number of references replayed.
	Accesses int64
	// ColdMisses: first reference to a datum by a processor that never
	// held it (capacity evictions can re-trigger them; on infinite
	// caches this equals the sum of per-processor footprint sizes).
	ColdMisses int64
	// CoherenceMisses: references that missed because another processor
	// invalidated the local copy.
	CoherenceMisses int64
	// CapacityMisses: references that missed because the LRU evicted
	// the line (only with finite caches).
	CapacityMisses int64
	// Invalidations: copies invalidated by remote writes.
	Invalidations int64
	// NetworkTraffic: messages on the interconnect — one per miss fill
	// plus one per invalidation (unit-size lines).
	NetworkTraffic int64
	// SharedData counts data elements accessed by more than one
	// processor over the whole run.
	SharedData int64
	// HopTraffic accumulates network hops when a MissCost hook supplies
	// topology distances (zero under the uniform-memory model).
	HopTraffic int64
	// LocalMisses/RemoteMisses split misses by whether the MissCost hook
	// reported zero hops (local memory module) or not.
	LocalMisses  int64
	RemoteMisses int64
	// Cost is the weighted access cost under the Config weights.
	Cost float64
	// PerProc carries per-processor miss counts (cold + coherence +
	// capacity), indexed by processor.
	PerProc []int64
}

// Misses returns the total miss count.
func (m Metrics) Misses() int64 { return m.ColdMisses + m.CoherenceMisses + m.CapacityMisses }

// MissesPerProc returns the mean misses per processor.
func (m Metrics) MissesPerProc() float64 {
	if m.Procs == 0 {
		return 0
	}
	return float64(m.Misses()) / float64(m.Procs)
}

func (m Metrics) String() string {
	return fmt.Sprintf("misses=%d (cold=%d coherence=%d capacity=%d) inval=%d traffic=%d shared=%d cost=%.0f",
		m.Misses(), m.ColdMisses, m.CoherenceMisses, m.CapacityMisses,
		m.Invalidations, m.NetworkTraffic, m.SharedData, m.Cost)
}

// datumRec is the intern table's record of one datum: how to rebuild its
// key string on demand.
type datumRec struct {
	kind  uint8
	array int32   // recIdx: index into arrayNames
	index []int64 // recIdx
	line  int64   // recLine
	str   string  // recStr: the original key; otherwise built lazily
}

const (
	recStr = iota
	recIdx
	recLine
)

// idxKey is the hashable intern key for structured references of up to
// four dimensions (the common case; deeper nests fall back to the string
// key).
type idxKey struct {
	array int32
	dims  int8
	i     [4]int64
}

// Machine is the simulated multiprocessor.
type Machine struct {
	cfg    Config
	caches []*cache

	// Intern table: datum → dense ID.
	arrays     map[string]int32
	arrayNames []string
	byIdx      map[idxKey]int32
	byStr      map[string]int32
	byLine     map[int64]int32
	recs       []datumRec

	dir []lineState // directory, indexed by datum ID
	// touched is the shared-data census: which processors ever accessed
	// each datum.
	touched []procSet

	metrics Metrics
}

// New creates a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("cachesim: need at least one processor")
	}
	if cfg.CacheLines < 0 {
		return nil, fmt.Errorf("cachesim: negative cache size")
	}
	hint := cfg.ExpectedData
	if hint < 0 {
		hint = 0
	}
	m := &Machine{
		cfg:     cfg,
		arrays:  make(map[string]int32, 8),
		byIdx:   make(map[idxKey]int32, hint),
		byLine:  make(map[int64]int32, hint),
		recs:    make([]datumRec, 0, hint),
		dir:     make([]lineState, 0, hint),
		touched: make([]procSet, 0, hint),
	}
	m.metrics.Procs = cfg.Procs
	m.metrics.PerProc = make([]int64, cfg.Procs)
	for p := 0; p < cfg.Procs; p++ {
		m.caches = append(m.caches, newCache(cfg.CacheLines))
	}
	return m, nil
}

// newID appends a fresh datum to the intern table, directory, and census.
func (m *Machine) newID(rec datumRec) int32 {
	id := int32(len(m.recs))
	m.recs = append(m.recs, rec)
	m.dir = append(m.dir, lineState{owner: -1})
	m.touched = append(m.touched, procSet{})
	return id
}

func (m *Machine) internString(datum string) int32 {
	if m.byStr == nil {
		m.byStr = make(map[string]int32)
	}
	if id, ok := m.byStr[datum]; ok {
		return id
	}
	id := m.newID(datumRec{kind: recStr, str: datum})
	m.byStr[datum] = id
	return id
}

func (m *Machine) internDatum(array string, index []int64) int32 {
	if len(index) > len(idxKey{}.i) {
		return m.internString(DatumKey(array, index))
	}
	aid, ok := m.arrays[array]
	if !ok {
		aid = int32(len(m.arrayNames))
		m.arrays[array] = aid
		m.arrayNames = append(m.arrayNames, array)
	}
	k := idxKey{array: aid, dims: int8(len(index))}
	copy(k.i[:], index)
	if id, ok := m.byIdx[k]; ok {
		return id
	}
	id := m.newID(datumRec{kind: recIdx, array: aid, index: append([]int64(nil), index...)})
	m.byIdx[k] = id
	return id
}

func (m *Machine) internLine(line int64) int32 {
	if id, ok := m.byLine[line]; ok {
		return id
	}
	id := m.newID(datumRec{kind: recLine, line: line})
	m.byLine[line] = id
	return id
}

// key materializes (and caches) the datum's key string — only the MissCost
// hook needs it.
func (m *Machine) key(id int32) string {
	rec := &m.recs[id]
	if rec.str == "" {
		switch rec.kind {
		case recIdx:
			rec.str = DatumKey(m.arrayNames[rec.array], rec.index)
		case recLine:
			rec.str = "L" + strconv.FormatInt(rec.line, 10)
		}
	}
	return rec.str
}

// Access replays one reference by processor proc to the named datum.
func (m *Machine) Access(proc int, datum string, write, atomic bool) {
	m.access(proc, m.internString(datum), write, atomic)
}

// AccessDatum is Access with structured array indices — the fast path: no
// key string is built.
func (m *Machine) AccessDatum(proc int, array string, index []int64, write, atomic bool) {
	m.access(proc, m.internDatum(array, index), write, atomic)
}

// AccessLine replays a reference at cache-line granularity; line is the
// line number from a layout.MemoryMap.
func (m *Machine) AccessLine(proc int, line int64, write, atomic bool) {
	m.access(proc, m.internLine(line), write, atomic)
}

func (m *Machine) access(proc int, id int32, write, atomic bool) {
	m.metrics.Accesses++
	// Appendix A: synchronizing reads and writes are both treated as
	// writes by the coherence system.
	if atomic {
		write = true
	}

	m.touched[id].add(proc)

	c := m.caches[proc]
	st := &m.dir[id]

	hit := c.has(id)
	if hit && write && st.owner != int32(proc) && st.sharers.count() > 1 {
		// Shared copy upgraded to exclusive: others invalidate, and the
		// upgrade costs a network round trip but not a refill.
		m.invalidateOthers(st, proc, id)
		st.owner = int32(proc)
		m.metrics.NetworkTraffic++
		m.chargeHit(atomic)
		c.touch(id)
		return
	}
	if hit {
		if write {
			st.owner = int32(proc)
		}
		m.chargeHit(atomic)
		c.touch(id)
		return
	}

	// Miss path: classify.
	switch {
	case c.wasInvalidated(id):
		m.metrics.CoherenceMisses++
	case c.wasEvicted(id):
		m.metrics.CapacityMisses++
	default:
		m.metrics.ColdMisses++
	}
	m.metrics.PerProc[proc]++
	m.metrics.NetworkTraffic++ // line fill from memory
	if write {
		m.invalidateOthers(st, proc, id)
		st.owner = int32(proc)
	} else if st.owner >= 0 && st.owner != int32(proc) {
		// Reading a dirty line: writeback traffic, line becomes shared.
		m.metrics.NetworkTraffic++
		st.owner = -1
	}
	st.sharers.add(proc)
	if victim, ok := c.insert(id); ok {
		m.dir[victim].sharers.remove(proc)
	}
	if m.cfg.MissCost != nil {
		cost, hops := m.cfg.MissCost(proc, m.key(id), atomic)
		m.metrics.Cost += cost
		m.metrics.HopTraffic += hops
		if hops == 0 {
			m.metrics.LocalMisses++
		} else {
			m.metrics.RemoteMisses++
		}
	} else if m.cfg.CostMemory > 0 {
		if atomic {
			m.metrics.Cost += m.cfg.CostAtomic
		} else {
			m.metrics.Cost += m.cfg.CostMemory
		}
	}
}

func (m *Machine) chargeHit(atomic bool) {
	if atomic {
		// A synchronizing hit still costs coherence arbitration.
		m.metrics.Cost += m.cfg.CostAtomic
		m.metrics.NetworkTraffic++
		return
	}
	m.metrics.Cost += m.cfg.CostCacheHit
}

func (m *Machine) invalidateOthers(st *lineState, proc int, id int32) {
	st.sharers.forEach(func(p int) bool {
		if p != proc {
			m.caches[p].invalidate(id)
			st.sharers.remove(p)
			m.metrics.Invalidations++
			m.metrics.NetworkTraffic++
		}
		return true
	})
}

// Finish computes the derived metrics and returns the totals.
func (m *Machine) Finish() Metrics {
	var shared int64
	for i := range m.touched {
		if m.touched[i].count() > 1 {
			shared++
		}
	}
	m.metrics.SharedData = shared
	return m.metrics
}

// DatumKey builds the canonical datum key for an array element.
func DatumKey(array string, index []int64) string {
	buf := make([]byte, 0, len(array)+2+8*len(index))
	buf = append(buf, array...)
	buf = append(buf, '[')
	for i, v := range index {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	buf = append(buf, ']')
	return string(buf)
}

// RunNest replays the nest under an iteration→processor assignment. Outer
// sequential loops are replayed in order (each epoch revisits the whole
// doall space, exposing steady-state coherence traffic, Figure 9).
// assign maps a doall iteration point to its processor.
func RunNest(m *Machine, n *loopir.Nest, assign func(p []int64) int) error {
	return m.replay(n, assign, func(r loopir.MemRef) (int32, error) {
		return m.internDatum(r.Array, r.Index), nil
	})
}

// replay walks the nest's schedule on the machine; datum maps each
// reference to the datum it touches.
func (m *Machine) replay(n *loopir.Nest, assign func(p []int64) int, datum func(loopir.MemRef) (int32, error)) error {
	s, err := loopir.NewSchedule(n, m.cfg.Procs, assign)
	if err != nil {
		return err
	}
	s.Walk(func(proc int, env map[string]int64) bool {
		for _, r := range n.TraceIteration(env) {
			var id int32
			if id, err = datum(r); err != nil {
				return false
			}
			m.access(proc, id, r.Write, r.Atomic)
		}
		return true
	})
	return err
}
