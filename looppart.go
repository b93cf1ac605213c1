// Package looppart implements automatic partitioning of parallel loops for
// cache-coherent multiprocessors, reproducing the framework of Agarwal,
// Kranz, and Natarajan (ICPP 1993 / MIT LCS TM-481).
//
// Given a perfectly nested doall loop whose array subscripts are affine
// functions of the loop indices, the library:
//
//   - classifies the references into uniformly intersecting sets and
//     computes their spread vectors (Definitions 4–8),
//   - models the cumulative data footprint of a candidate loop tile
//     (Equation 2, Theorems 1–5),
//   - derives the tile shape minimizing predicted communication, over
//     rectangular tiles, hyperparallelepiped (skewed) tiles, and
//     communication-free hyperplane partitions where they exist,
//   - validates predictions on a cache-coherent multiprocessor simulator
//     and executes partitioned nests for real on goroutines.
//
// The typical flow:
//
//	prog, _ := looppart.Parse(src, nil)
//	plan, _ := prog.Partition(64, looppart.Auto)
//	metrics, _ := plan.Simulate(looppart.SimOptions{})
//	fmt.Println(plan, metrics)
package looppart

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"looppart/internal/cachesim"
	"looppart/internal/datapart"
	"looppart/internal/exec"
	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/machine"
	"looppart/internal/obs"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// Program is a parsed and analyzed loop nest.
type Program struct {
	Nest     *loopir.Nest
	Analysis *footprint.Analysis
}

// Parse parses the loop-language source (see the README for the grammar;
// it follows the paper's Doall notation) and runs the reference analysis.
// Named loop-bound parameters (e.g. N) are resolved against params.
func Parse(src string, params map[string]int64) (*Program, error) {
	return parse(context.Background(), src, params)
}

// parse is Parse with its parse and analyze spans opened in ctx, so a
// served request's tree carries them.
func parse(ctx context.Context, src string, params map[string]int64) (*Program, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	n, err := loopir.Parse(src, params)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "analyze")
	a, err := footprint.Analyze(n)
	sp.End()
	if err != nil {
		return nil, err
	}
	reg := telemetry.Active()
	if !reg.Recording() {
		return &Program{Nest: n, Analysis: a}, nil
	}
	// Decision trace: one event per uniformly intersecting class, carrying
	// the quantities the optimizers score from (G, spread, coefficients).
	for i, c := range a.Classes {
		fields := map[string]any{
			"array":     c.Array,
			"refs":      c.NumRefs(),
			"G":         c.G.String(),
			"spread":    fmt.Sprint(c.Spread()),
			"cum":       fmt.Sprint(c.CumulativeSpread()),
			"invariant": c.FootprintInvariant(),
			"has_write": c.HasWrite(),
		}
		if u, _, ok := c.SpreadCoeffs(); ok {
			fields["coeffs"] = fmt.Sprint(u)
		}
		reg.Emit("analysis.class", fmt.Sprintf("class%d.%s", i, c.Array), fields)
	}
	return &Program{Nest: n, Analysis: a}, nil
}

// MustParse is Parse panicking on error, for examples and tests.
func MustParse(src string, params map[string]int64) *Program {
	p, err := Parse(src, params)
	if err != nil {
		panic(err)
	}
	return p
}

// Strategy selects a partitioning algorithm.
type Strategy int

const (
	// Auto prefers a communication-free partition when one exists, and
	// otherwise the footprint-optimal rectangular partition.
	Auto Strategy = iota
	// Rect searches rectangular tiles (Theorem 4 objective).
	Rect
	// Skewed searches hyperparallelepiped tiles (Theorem 2 objective).
	Skewed
	// CommFree requires a communication-free hyperplane partition and
	// fails if none exists (the Ramanujam–Sadayappan class).
	CommFree
	// Rows, Columns, Blocks are the fixed naive baselines of Figure 3.
	Rows
	Columns
	Blocks
	// AbrahamHudak runs the baseline algorithm of [6] on its restricted
	// program class.
	AbrahamHudak
	// LowerBound plans the rectangular grid minimizing the Dinh–Demmel
	// per-grid communication lower bound, and reports the bound itself so
	// any plan's measured traffic can be scored against it.
	LowerBound
	// Oblivious emits a cache-oblivious recursive-bisection plan (PCOT
	// style): no tile extents are baked in, so the plan also covers nests
	// whose upper bounds are symbolic (`?N`) at planning time.
	Oblivious
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Rect:
		return "rect"
	case Skewed:
		return "skewed"
	case CommFree:
		return "comm-free"
	case Rows:
		return "rows"
	case Columns:
		return "columns"
	case Blocks:
		return "blocks"
	case AbrahamHudak:
		return "abraham-hudak"
	case LowerBound:
		return "lowerbound"
	case Oblivious:
		return "oblivious"
	default:
		return "unknown"
	}
}

// Plan is a concrete partition: an iteration→processor assignment plus the
// model predictions that selected it.
type Plan struct {
	Program  *Program
	Strategy Strategy
	Procs    int

	// Tile is set for tile-shaped plans (rect and skewed).
	Tile *tile.Tile
	// Slab is set for communication-free hyperplane plans.
	Slab *partition.SlabPlan
	// Oblivious is set for cache-oblivious recursive-bisection plans.
	Oblivious *partition.ObliviousPlan

	// PredictedFootprint and PredictedTraffic are per-tile model values
	// (footprint only for tile plans).
	PredictedFootprint float64
	PredictedTraffic   float64

	assign func(p []int64) int
}

// Partition derives a plan for P processors with the given strategy. It
// is PartitionCtx without a context: its spans open under the process
// trace, if one is installed.
func (pr *Program) Partition(procs int, strategy Strategy) (*Plan, error) {
	return pr.PartitionCtx(context.Background(), procs, strategy)
}

// PartitionCtx derives a plan for P processors with the given strategy.
// It opens a partition.<strategy> span in ctx, and the strategy searches
// record theirs (search.rect / search.skewed with evaluated/pruned
// counts) beneath it.
func (pr *Program) PartitionCtx(ctx context.Context, procs int, strategy Strategy) (*Plan, error) {
	if procs < 1 {
		return nil, fmt.Errorf("looppart: procs must be >= 1, got %d", procs)
	}
	if pr.Nest.Symbolic() && strategy != Oblivious && strategy != Auto {
		return nil, fmt.Errorf("looppart: nest has symbolic bounds; only the oblivious strategy can plan it")
	}
	reg := telemetry.Active()
	if strategy != Auto {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "partition."+strategy.String())
		sp.SetAttr("procs", procs)
		defer sp.End()
	}
	switch strategy {
	case Auto:
		if pr.Nest.Symbolic() {
			reg.Emit("strategy.auto", "oblivious", map[string]any{
				"reason": "symbolic loop bounds; only cache-oblivious bisection needs no extents",
			})
			return pr.PartitionCtx(ctx, procs, Oblivious)
		}
		if plan, err := pr.PartitionCtx(ctx, procs, CommFree); err == nil {
			reg.Emit("strategy.auto", "comm-free", map[string]any{
				"reason": "a communication-free hyperplane partition exists",
			})
			return plan, nil
		}
		reg.Emit("strategy.auto", "rect", map[string]any{
			"reason": "no communication-free partition; falling back to footprint-optimal rectangles",
		})
		return pr.PartitionCtx(ctx, procs, Rect)
	case Rect, Skewed, LowerBound, Oblivious:
		return pr.familyPlan(ctx, strategy, procs)
	case Rows, Columns, Blocks:
		shape := map[Strategy]partition.NaiveShape{
			Rows: partition.ByRows, Columns: partition.ByColumns, Blocks: partition.ByBlocks,
		}[strategy]
		rp, err := partition.Naive(pr.Analysis, procs, shape)
		if err != nil {
			return nil, err
		}
		return pr.tilePlan(strategy, procs, rp.Tile(), rp.PredictedFootprint, rp.PredictedTraffic)
	case AbrahamHudak:
		rp, err := partition.AbrahamHudak(pr.Analysis, procs)
		if err != nil {
			return nil, err
		}
		return pr.tilePlan(strategy, procs, rp.Tile(), rp.PredictedFootprint, rp.PredictedTraffic)
	case CommFree:
		return pr.familyPlan(ctx, strategy, procs)
	default:
		return nil, fmt.Errorf("looppart: unknown strategy %d", strategy)
	}
}

// familyPlan routes a strategy through the partition.Family registry and
// lifts the family-independent result into a Plan.
func (pr *Program) familyPlan(ctx context.Context, strategy Strategy, procs int) (*Plan, error) {
	fam, ok := partition.Lookup(strategy.String())
	if !ok {
		return nil, fmt.Errorf("looppart: unknown strategy %d", strategy)
	}
	fp, err := fam.Optimize(ctx, pr.Analysis, procs)
	if err != nil {
		if errors.Is(err, partition.ErrNoCommFree) {
			return nil, fmt.Errorf("looppart: no communication-free partition exists for this nest")
		}
		return nil, err
	}
	switch {
	case fp.Tile != nil:
		return pr.tilePlan(strategy, procs, *fp.Tile, fp.PredictedFootprint, fp.PredictedTraffic)
	case fp.Slab != nil:
		sp := fp.Slab
		plan := &Plan{Program: pr, Strategy: strategy, Procs: procs, Slab: sp}
		plan.assign = func(p []int64) int { return sp.SlabOf(p, procs) }
		return plan, nil
	case fp.Oblivious != nil:
		plan := &Plan{Program: pr, Strategy: strategy, Procs: procs, Oblivious: fp.Oblivious}
		if !fp.Oblivious.Symbolic {
			asg, err := fp.Oblivious.Assign(tile.BoundsOf(pr.Nest), procs)
			if err != nil {
				return nil, err
			}
			plan.assign = asg
		}
		return plan, nil
	default:
		return nil, fmt.Errorf("looppart: strategy %s produced an empty plan", strategy)
	}
}

func (pr *Program) tilePlan(s Strategy, procs int, t tile.Tile, fp, tr float64) (*Plan, error) {
	space := tile.BoundsOf(pr.Nest)
	tl, err := tile.NewTiling(t, space.Lo)
	if err != nil {
		return nil, err
	}
	asg, err := tile.Assign(tl, space, procs)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Program: pr, Strategy: s, Procs: procs, Tile: &t,
		PredictedFootprint: fp, PredictedTraffic: tr,
		assign: asg.ProcOf,
	}, nil
}

// Assign returns the processor executing the given doall iteration point.
// It panics for symbolic-bounds plans (Concrete reports which).
func (p *Plan) Assign(point []int64) int { return p.assign(point) }

// Concrete reports whether the plan carries an iteration→processor
// assignment. Oblivious plans over symbolic bounds do not: they are a
// split policy, resolvable only once the extents are known.
func (p *Plan) Concrete() bool { return p.assign != nil }

// errSymbolicPlan is the uniform refusal for replay/execution of a plan
// with no concrete assignment.
func (p *Plan) errSymbolicPlan() error {
	return fmt.Errorf("looppart: plan over symbolic bounds has no concrete assignment; supply concrete extents to simulate or execute")
}

// LoadImbalance returns max/mean iterations per processor (1.0 = perfect).
// Slab plans over skewed hyperplanes can be noticeably imbalanced — the
// cost of communication-freedom that Figure 3's rectangular partitions
// avoid.
func (p *Plan) LoadImbalance() (float64, error) {
	s, err := p.schedule()
	if err != nil {
		return 0, err
	}
	return s.LoadImbalance(), nil
}

// schedule splits the nest's iterations among the plan's processors.
func (p *Plan) schedule() (*loopir.Schedule, error) {
	if !p.Concrete() {
		return nil, p.errSymbolicPlan()
	}
	return loopir.NewSchedule(p.Program.Nest, p.Procs, p.assign)
}

// SimulateBlocked replays each processor's iterations in blocked subtile
// order (§2.2's small-cache regime: subdivide the tile, keep the aspect
// ratio) on finite caches, processor by processor. subExt gives the
// subtile extents; cacheLines bounds each cache (0 = infinite, where
// ordering cannot matter).
func (p *Plan) SimulateBlocked(subExt []int64, cacheLines int) (cachesim.Metrics, error) {
	s, err := p.schedule()
	if err != nil {
		return cachesim.Metrics{}, err
	}
	subTiling, err := tile.RectTilingFor(tile.BoundsOf(p.Program.Nest), subExt)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	cfg := cachesim.DefaultConfig(p.Procs)
	cfg.CacheLines = cacheLines
	cfg.ExpectedData = cachesim.ExpectedData(p.PredictedFootprint, p.Procs)
	m, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	keys := make([][]int64, len(s.Points))
	for i, pt := range s.Points {
		keys[i] = subTiling.Coord(pt)
	}
	for proc, pts := range s.Tiles {
		// Blocked order: by subtile, then lexicographically within it.
		order := slices.Clone(pts)
		slices.SortStableFunc(order, func(a, b int) int { return slices.Compare(keys[a], keys[b]) })
		points := make([][]int64, len(order))
		for k, i := range order {
			points[k] = s.Points[i]
		}
		if err := cachesim.ReplayPoints(m, p.Program.Nest, proc, points, nil); err != nil {
			return cachesim.Metrics{}, err
		}
	}
	metrics := m.Finish()
	metrics.Publish(telemetry.Active(), "simblocked."+p.Strategy.String()+".")
	return metrics, nil
}

func (p *Plan) String() string {
	switch {
	case p.Oblivious != nil:
		return fmt.Sprintf("%s plan for %d procs: %v", p.Strategy, p.Procs, p.Oblivious)
	case p.Slab != nil:
		return fmt.Sprintf("%s plan for %d procs: %v", p.Strategy, p.Procs, *p.Slab)
	case p.Tile != nil:
		return fmt.Sprintf("%s plan for %d procs: %v (predicted footprint %.1f)",
			p.Strategy, p.Procs, *p.Tile, p.PredictedFootprint)
	default:
		return fmt.Sprintf("%s plan for %d procs", p.Strategy, p.Procs)
	}
}

// SimOptions parameterizes uniform-memory simulation (Figure 2's model).
type SimOptions struct {
	// CacheLines bounds each cache; 0 = infinite (the paper's model).
	CacheLines int
}

// Simulate replays the nest on the cache-coherent simulator under this
// plan and returns the metrics. When telemetry is active, the metrics
// publish as sim.<strategy>.* counters alongside a simulation span.
func (p *Plan) Simulate(opts SimOptions) (cachesim.Metrics, error) {
	if !p.Concrete() {
		return cachesim.Metrics{}, p.errSymbolicPlan()
	}
	_, sp := obs.StartSpan(context.Background(), "simulate."+p.Strategy.String())
	defer sp.End()
	cfg := cachesim.DefaultConfig(p.Procs)
	cfg.CacheLines = opts.CacheLines
	cfg.ExpectedData = cachesim.ExpectedData(p.PredictedFootprint, p.Procs)
	m, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	if err := cachesim.RunNest(m, p.Program.Nest, p.assign); err != nil {
		return cachesim.Metrics{}, err
	}
	metrics := m.Finish()
	metrics.Publish(telemetry.Active(), "sim."+p.Strategy.String()+".")
	return metrics, nil
}

// MeshOptions parameterizes distributed-memory simulation (§4's Alewife
// model).
type MeshOptions struct {
	// Aligned selects the data-partitioning-and-alignment placement;
	// false uses hashed (round-robin) placement.
	Aligned bool
	// CacheLines bounds each cache; 0 = infinite.
	CacheLines int
}

// SimulateMesh replays the nest on a 2-D mesh with distributed memory,
// homing data by alignment or hashing, and returns the metrics (including
// Local/RemoteMisses and HopTraffic).
func (p *Plan) SimulateMesh(opts MeshOptions) (cachesim.Metrics, error) {
	if p.Tile == nil {
		return cachesim.Metrics{}, fmt.Errorf("looppart: mesh simulation requires a tile plan")
	}
	mesh, err := machine.SquarishMesh(p.Procs)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	space := tile.BoundsOf(p.Program.Nest)
	tl, err := tile.NewTiling(*p.Tile, space.Lo)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	asg, err := tile.Assign(tl, space, p.Procs)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	place := machine.RoundRobin(p.Procs)
	if opts.Aligned {
		al, err := datapart.NewAligner(p.Program.Analysis, asg, place)
		if err != nil {
			return cachesim.Metrics{}, err
		}
		place = al.Placement()
	}
	cost := machine.DefaultCostModel()
	cfg := cachesim.DefaultConfig(p.Procs)
	cfg.CacheLines = opts.CacheLines
	cfg.ExpectedData = cachesim.ExpectedData(p.PredictedFootprint, p.Procs)
	cfg.MissCost = func(proc int, datum string, atomic bool) (float64, int64) {
		arr, idx, err := ParseDatum(datum)
		if err != nil {
			return cost.RemoteBase, int64(mesh.MaxHops())
		}
		return cost.MissCost(mesh, proc, place(arr, idx), atomic)
	}
	m, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	if err := cachesim.RunNest(m, p.Program.Nest, p.assign); err != nil {
		return cachesim.Metrics{}, err
	}
	metrics := m.Finish()
	placement := "hashed"
	if opts.Aligned {
		placement = "aligned"
	}
	metrics.Publish(telemetry.Active(), "mesh."+p.Strategy.String()+"."+placement+".")
	return metrics, nil
}

// Execute runs the nest for real on goroutines (one per processor) over a
// fresh store sized for the nest, and returns the store.
func (p *Plan) Execute() (exec.Store, error) {
	st, err := exec.StoreFor(p.Program.Nest)
	if err != nil {
		return nil, err
	}
	if err := p.ExecuteOn(st); err != nil {
		return nil, err
	}
	return st, nil
}

// ExecuteOn runs the nest under the plan over a caller-provided store.
func (p *Plan) ExecuteOn(st exec.Store) error {
	if !p.Concrete() {
		return p.errSymbolicPlan()
	}
	_, sp := obs.StartSpan(context.Background(), "execute."+p.Strategy.String())
	defer sp.End()
	return exec.RunParallel(p.Program.Nest, st, p.Procs, p.assign)
}

// ParseDatum splits a simulator datum key "A[1,-2]" into its array name
// and index tuple.
func ParseDatum(datum string) (string, []int64, error) {
	open := -1
	for i := 0; i < len(datum); i++ {
		if datum[i] == '[' {
			open = i
			break
		}
	}
	if open < 0 || len(datum) == 0 || datum[len(datum)-1] != ']' {
		return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
	}
	name := datum[:open]
	body := datum[open+1 : len(datum)-1]
	var idx []int64
	v, sign := int64(0), int64(1)
	started := false
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case c == ',':
			if !started {
				return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
			}
			idx = append(idx, sign*v)
			v, sign, started = 0, 1, false
		case c == '-':
			sign = -1
		case c >= '0' && c <= '9':
			v = v*10 + int64(c-'0')
			started = true
		default:
			return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
		}
	}
	if !started {
		return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
	}
	idx = append(idx, sign*v)
	return name, idx, nil
}
