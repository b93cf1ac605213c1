// Package exec runs partitioned loop nests for real: each processor of the
// plan becomes a goroutine executing its tile's iterations over dense
// float64 arrays, with a barrier between sequential (doseq) epochs and
// atomic accumulates for synchronizing references (Appendix A).
//
// The executor is the "code generation" end of the pipeline: it
// demonstrates that the partitions the analysis produces compute the same
// values as sequential execution, and it provides wall-clock measurements
// for the benchmark harness.
package exec

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"time"

	"looppart/internal/layout"
	"looppart/internal/loopir"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
)

// Array is a dense multidimensional float64 array with explicit bounds per
// dimension. Subscripts outside the bounds are clamped into a halo: reads
// return 0 and writes are dropped. (The paper's loop bounds keep interior
// references in range; stencils naturally read one or two elements past
// the edge, which real codes handle with halo cells.)
type Array struct {
	Name string
	Lo   []int64
	Hi   []int64
	data []float64
	// strides for row-major layout.
	strides []int64
	mu      []sync.Mutex // striped locks for atomic accumulates
	// acquisitions/contended count striped-lock traffic when telemetry is
	// active at allocation time; both nil otherwise (zero overhead).
	acquisitions *telemetry.Counter
	contended    *telemetry.Counter
}

// stripeCount sizes the striped-lock pool for an array of size elements:
// enough stripes that GOMAXPROCS writers rarely collide on a lock they
// would not collide on as elements (4× oversubscription, rounded up to a
// power of two), but never more stripes than elements and never an
// unbounded pool for huge arrays.
func stripeCount(size int64) int {
	target := 4 * runtime.GOMAXPROCS(0)
	n := 8
	for n < target {
		n <<= 1
	}
	if n > 1024 {
		n = 1024
	}
	for int64(n) > size && n > 1 {
		n >>= 1
	}
	return n
}

// NewArray allocates an array covering [lo[k], hi[k]] per dimension.
func NewArray(name string, lo, hi []int64) (*Array, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("exec: bounds rank mismatch")
	}
	size := int64(1)
	strides := make([]int64, len(lo))
	for k := len(lo) - 1; k >= 0; k-- {
		if hi[k] < lo[k] {
			return nil, fmt.Errorf("exec: empty dimension %d", k)
		}
		strides[k] = size
		size *= hi[k] - lo[k] + 1
	}
	const maxElems = 1 << 28
	if size > maxElems {
		return nil, fmt.Errorf("exec: array %s too large (%d elements)", name, size)
	}
	a := &Array{Name: name, Lo: lo, Hi: hi, data: make([]float64, size), strides: strides,
		mu: make([]sync.Mutex, stripeCount(size))}
	if reg := telemetry.Active(); reg != nil {
		a.acquisitions = reg.Counter("exec.atomic.acquisitions")
		a.contended = reg.Counter("exec.atomic.contended")
		reg.Gauge("exec.array." + name + ".stripes").Set(float64(len(a.mu)))
	}
	return a, nil
}

// lockStripe acquires the stripe lock for off, counting contended
// acquisitions when telemetry was active at allocation.
func (a *Array) lockStripe(off int64) *sync.Mutex {
	m := &a.mu[off%int64(len(a.mu))]
	if a.acquisitions == nil {
		m.Lock()
		return m
	}
	a.acquisitions.Add(1)
	if !m.TryLock() {
		a.contended.Add(1)
		m.Lock()
	}
	return m
}

func (a *Array) offset(idx []int64) (int64, bool) {
	if len(idx) != len(a.Lo) {
		return 0, false
	}
	var off int64
	for k := range idx {
		if idx[k] < a.Lo[k] || idx[k] > a.Hi[k] {
			return 0, false
		}
		off += (idx[k] - a.Lo[k]) * a.strides[k]
	}
	return off, true
}

// At reads an element; out-of-bounds reads return 0 (halo).
func (a *Array) At(idx []int64) float64 {
	if off, ok := a.offset(idx); ok {
		return a.data[off]
	}
	return 0
}

// Set writes an element; out-of-bounds writes are dropped (halo).
func (a *Array) Set(idx []int64, v float64) {
	if off, ok := a.offset(idx); ok {
		a.data[off] = v
	}
}

// AtomicAdd accumulates into an element under a striped lock.
func (a *Array) AtomicAdd(idx []int64, v float64) {
	off, ok := a.offset(idx)
	if !ok {
		return
	}
	m := a.lockStripe(off)
	a.data[off] += v
	m.Unlock()
}

// AtomicUpdate applies fn to an element under its stripe lock. fn may read
// the current value through the store; the lock covers the full
// read-modify-write.
func (a *Array) AtomicUpdate(idx []int64, fn func(old float64) float64) {
	off, ok := a.offset(idx)
	if !ok {
		return
	}
	m := a.lockStripe(off)
	a.data[off] = fn(a.data[off])
	m.Unlock()
}

// Fill initializes every element with fn(index).
func (a *Array) Fill(fn func(idx []int64) float64) {
	idx := make([]int64, len(a.Lo))
	copy(idx, a.Lo)
	for {
		off, _ := a.offset(idx)
		a.data[off] = fn(idx)
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] <= a.Hi[k] {
				break
			}
			idx[k] = a.Lo[k]
			k--
		}
		if k < 0 {
			return
		}
	}
}

// Clone deep-copies the array.
func (a *Array) Clone() *Array {
	c, _ := NewArray(a.Name, a.Lo, a.Hi)
	copy(c.data, a.data)
	return c
}

// EqualWithin reports whether two arrays agree elementwise within eps.
func (a *Array) EqualWithin(b *Array, eps float64) bool {
	if len(a.data) != len(b.data) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > eps {
			return false
		}
	}
	return true
}

// Store is the set of arrays a program runs against.
type Store map[string]*Array

// StoreFor allocates arrays sized to cover every reference the nest makes,
// using the same subscript interval analysis as the memory layouts
// (layout.MapNest), so the executor and the simulators agree on bounds.
func StoreFor(n *loopir.Nest) (Store, error) {
	mm, err := layout.MapNest(n, 1)
	if err != nil {
		return nil, err
	}
	st := Store{}
	for name, l := range mm.Arrays {
		arr, err := NewArray(name, l.Lo, l.Hi)
		if err != nil {
			return nil, err
		}
		st[name] = arr
	}
	return st, nil
}

// evalExpr evaluates an RHS expression for one iteration.
func evalExpr(e loopir.Expr, st Store, env map[string]int64) float64 {
	switch t := e.(type) {
	case loopir.ConstExpr:
		return float64(t.Value)
	case loopir.VarExpr:
		return float64(env[t.Name])
	case loopir.RefExpr:
		idx := make([]int64, len(t.Ref.Subs))
		for k, s := range t.Ref.Subs {
			idx[k] = s.Eval(env)
		}
		arr, ok := st[t.Ref.Array]
		if !ok {
			panic(fmt.Sprintf("exec: unknown array %q", t.Ref.Array))
		}
		return arr.At(idx)
	case loopir.BinExpr:
		l := evalExpr(t.Left, st, env)
		r := evalExpr(t.Right, st, env)
		switch t.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		default:
			panic(fmt.Sprintf("exec: unknown operator %q", t.Op))
		}
	default:
		panic("exec: unknown expression node")
	}
}

// runIteration executes the body statements for one iteration.
func runIteration(n *loopir.Nest, st Store, env map[string]int64) {
	for _, s := range n.Body {
		idx := make([]int64, len(s.LHS.Subs))
		for k, sub := range s.LHS.Subs {
			idx[k] = sub.Eval(env)
		}
		arr, ok := st[s.LHS.Array]
		if !ok {
			panic(fmt.Sprintf("exec: unknown array %q", s.LHS.Array))
		}
		switch {
		case s.Atomic:
			// l$C[..] = C[..] + expr: accumulates may land in any order
			// but each must be atomic (Appendix A). When the statement
			// is a self-accumulate, add the increment under the element
			// lock; otherwise run the whole read-modify-write locked.
			if inc, ok := splitAccumulate(s); ok {
				arr.AtomicAdd(idx, evalExpr(inc, st, env))
			} else {
				arr.AtomicUpdate(idx, func(float64) float64 {
					return evalExpr(s.RHS, st, env)
				})
			}
		default:
			arr.Set(idx, evalExpr(s.RHS, st, env))
		}
	}
}

// splitAccumulate recognizes `l$X[e] = X[e] + rest` (either operand order)
// and returns rest.
func splitAccumulate(s loopir.Stmt) (loopir.Expr, bool) {
	bin, ok := s.RHS.(loopir.BinExpr)
	if !ok || bin.Op != '+' {
		return nil, false
	}
	if re, ok := bin.Left.(loopir.RefExpr); ok && sameRef(re.Ref, s.LHS) {
		return bin.Right, true
	}
	if re, ok := bin.Right.(loopir.RefExpr); ok && sameRef(re.Ref, s.LHS) {
		return bin.Left, true
	}
	return nil, false
}

func sameRef(a, b loopir.Ref) bool {
	if a.Array != b.Array || len(a.Subs) != len(b.Subs) {
		return false
	}
	for k := range a.Subs {
		if a.Subs[k].String() != b.Subs[k].String() {
			return false
		}
	}
	return true
}

// RunSequential executes the nest in source order (the reference
// semantics).
func RunSequential(n *loopir.Nest, st Store) {
	// One processor owns every point, so the schedule cannot fail.
	s, _ := loopir.NewSchedule(n, 1, func([]int64) int { return 0 })
	s.Walk(func(_ int, env map[string]int64) bool {
		runIteration(n, st, env)
		return true
	})
}

// RunParallel executes the nest with one goroutine per processor; assign
// maps each doall iteration point to a processor. A barrier separates
// doseq epochs. procs is the processor count.
func RunParallel(n *loopir.Nest, st Store, procs int, assign func(p []int64) int) error {
	s, err := loopir.NewSchedule(n, procs, assign)
	if err != nil {
		return err
	}
	stores := make([]Store, procs)
	for proc := range stores {
		stores[proc] = st
	}
	RunTiles(s, stores, nil)
	return nil
}

// RunTiles runs a schedule bulk-synchronously: in each doseq epoch, in
// source order, every processor runs its tile's points in lexicographic
// order on its own goroutine against stores[proc] (processors may share
// a store), all meet at a barrier, and then after, when non-nil, runs
// before the next epoch starts.
func RunTiles(s *loopir.Schedule, stores []Store, after func()) {
	reg := telemetry.Active()
	if reg != nil {
		// The split is fixed across epochs, so the load-imbalance ratio
		// is known before running.
		for proc, tile := range s.Tiles {
			reg.Counter(fmt.Sprintf("exec.proc.%d.iterations", proc)).Add(int64(len(tile)))
		}
		reg.Counter("exec.iterations").Add(int64(len(s.Points)))
		reg.Gauge("exec.load_imbalance").Set(s.LoadImbalance())
	}

	epoch := 0
	s.Epochs(func(seq map[string]int64) bool {
		var wg sync.WaitGroup
		// Executor spans open under the process trace (a CLI's -trace);
		// each tile renders on its processor's track.
		ectx, epochSpan := obs.StartSpan(context.Background(), "exec.epoch")
		epochSpan.SetAttr("epoch", epoch)
		epochStart := time.Now()
		var tileDur []time.Duration
		if reg != nil {
			tileDur = make([]time.Duration, len(s.Tiles))
		}
		for proc, tile := range s.Tiles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, sp := obs.StartSpan(ectx, "exec.tile")
				sp.SetAttr("proc", proc)
				sp.SetAttr("epoch", epoch)
				sp.SetAttr("iters", len(tile))
				start := time.Now()
				env := maps.Clone(seq)
				for _, i := range tile {
					s.Bind(env, i)
					runIteration(s.Nest, stores[proc], env)
				}
				if tileDur != nil {
					tileDur[proc] = time.Since(start)
				}
				sp.End()
			}()
		}
		wg.Wait() // barrier after the doall nest
		epochSpan.End()
		if reg != nil {
			// Every processor waits at the barrier from its own finish
			// until the slowest tile completes.
			epochDur := time.Since(epochStart)
			for _, d := range tileDur {
				reg.Histogram("exec.tile_wall_ns").Observe(d)
				wait := epochDur - d
				if wait < 0 {
					wait = 0
				}
				reg.Histogram("exec.barrier_wait_ns").Observe(wait)
			}
			reg.Counter("exec.epochs").Add(1)
		}
		epoch++
		if after != nil {
			after()
		}
		return true
	})
}
