package autotune

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"looppart/internal/cachesim"
	"looppart/internal/commsets"
	"looppart/internal/exec"
	"looppart/internal/footprint"
	"looppart/internal/layout"
	"looppart/internal/obs"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// TournamentOptions parameterizes RunTournament.
type TournamentOptions struct {
	// Procs is the processor count to partition for.
	Procs int
	// Strategy selects the candidate search: "rect" (default) or
	// "skewed".
	Strategy string
	// K is how many ranked candidates contest (default 4; 1 degenerates
	// to measuring the analytic plan alone).
	K int
	// MaxSkew bounds skew matrix entries for the skewed search
	// (default 3, matching the root pipeline's skew search — candidate 0
	// must be the exact plan the non-autotuned pipeline ships).
	MaxSkew int64
	// Fingerprint supplies the calibrated cost constants the replays run
	// under. Zero value means ModelFingerprint().
	Fingerprint Fingerprint
	// CacheLines bounds each simulated cache; 0 = infinite (the paper's
	// model).
	CacheLines int
	// Exec additionally runs each candidate for real on goroutines and
	// records wall-clock time. Wall time is reported, never used for
	// selection: it is nondeterministic, and the winner must be
	// reproducible.
	Exec bool
}

// Candidate is one contestant's predicted and measured showing.
type Candidate struct {
	// Rank is the analytic model's ranking (0 = the argmin plan the
	// non-autotuned pipeline would ship).
	Rank int       `json:"rank"`
	Tile tile.Tile `json:"-"`
	// TileDesc is Tile.String(), for serialized reports.
	TileDesc string `json:"tile"`
	// PredictedFootprint is the model's per-processor cumulative
	// footprint — its miss prediction on an infinite cache.
	PredictedFootprint float64 `json:"predicted_footprint"`
	Exactness          string  `json:"exactness"`

	// Measured results from the simulator replay.
	MeasuredMisses int64   `json:"measured_misses"`
	MeasuredCost   float64 `json:"measured_cost"`
	// MissesPerProc is MeasuredMisses/Procs, the measured counterpart of
	// PredictedFootprint.
	MissesPerProc float64 `json:"misses_per_proc"`
	// DeltaPct is (MissesPerProc − PredictedFootprint)/PredictedFootprint
	// ×100: how far the analytic model was off for this plan.
	DeltaPct float64 `json:"delta_pct"`
	// CommWords is the exact inter-processor communication of this plan
	// in words per epoch (internal/commsets) — the tournament's second
	// cost axis next to the measured miss count. −1 when the analysis
	// was unavailable for this candidate.
	CommWords int64 `json:"comm_words"`
	// ExecNs is the wall-clock time of the optional real execution.
	ExecNs int64 `json:"exec_ns,omitempty"`
}

// Result is a finished tournament.
type Result struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Strategy    string      `json:"strategy"`
	Procs       int         `json:"procs"`
	CacheLines  int         `json:"cache_lines,omitempty"`
	Candidates  []Candidate `json:"candidates"`
	// Winner indexes Candidates: the plan with the fewest measured
	// misses (ties to lower cost, then to the better analytic rank — so
	// a tournament that measures no difference ships the analytic plan).
	Winner int `json:"winner"`
	// CommLowerBound is the Dinh–Demmel communication lower bound for
	// the nest over this processor count — the floor every candidate's
	// CommWords is scored against. 0 when the strategy's candidates are
	// outside the rectangular-grid family the bound covers (skewed), or
	// when the nest has no bounded communication structure.
	CommLowerBound int64 `json:"comm_lower_bound,omitempty"`
}

// WinnerCandidate returns the winning contestant.
func (r *Result) WinnerCandidate() Candidate { return r.Candidates[r.Winner] }

// Improved reports whether measurement overturned the analytic choice.
func (r *Result) Improved() bool { return r.Winner != 0 }

// Report renders the predicted-vs-measured table.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tournament: %s, P=%d, fingerprint %s\n", r.Strategy, r.Procs, r.Fingerprint.ID())
	showOpt := r.CommLowerBound > 0
	if showOpt {
		fmt.Fprintf(&b, "%-4s %-20s %14s %14s %10s %8s %10s %7s\n",
			"rank", "tile", "predicted", "measured/proc", "delta", "misses", "comm", "opt%")
	} else {
		fmt.Fprintf(&b, "%-4s %-20s %14s %14s %10s %8s %10s\n",
			"rank", "tile", "predicted", "measured/proc", "delta", "misses", "comm")
	}
	for i, c := range r.Candidates {
		mark := "  "
		if i == r.Winner {
			mark = "← winner"
		}
		comm := "—"
		if c.CommWords >= 0 {
			comm = fmt.Sprintf("%d", c.CommWords)
		}
		if showOpt {
			opt := "—"
			if c.CommWords > 0 {
				opt = fmt.Sprintf("%.1f", 100*float64(r.CommLowerBound)/float64(c.CommWords))
			}
			fmt.Fprintf(&b, "%-4d %-20s %14.1f %14.1f %9.1f%% %8d %10s %7s %s\n",
				c.Rank, c.TileDesc, c.PredictedFootprint, c.MissesPerProc, c.DeltaPct, c.MeasuredMisses, comm, opt, mark)
			continue
		}
		fmt.Fprintf(&b, "%-4d %-20s %14.1f %14.1f %9.1f%% %8d %10s %s\n",
			c.Rank, c.TileDesc, c.PredictedFootprint, c.MissesPerProc, c.DeltaPct, c.MeasuredMisses, comm, mark)
	}
	if showOpt {
		fmt.Fprintf(&b, "communication lower bound: %d words/epoch (opt%% = bound/measured comm)\n", r.CommLowerBound)
	}
	w := r.WinnerCandidate()
	if r.Improved() {
		base := r.Candidates[0]
		fmt.Fprintf(&b, "measurement overturned the analytic choice: %s (%d misses) beats %s (%d misses)\n",
			w.TileDesc, w.MeasuredMisses, base.TileDesc, base.MeasuredMisses)
	} else {
		fmt.Fprintf(&b, "analytic choice confirmed: %s (%d misses)\n", w.TileDesc, w.MeasuredMisses)
	}
	return b.String()
}

// RunTournament surfaces the top-K candidate plans of the analytic
// search, replays each through the cache simulator under the calibrated
// cost model, and returns the measured ranking. Candidate 0 is always the
// plan the pure-analytic pipeline would pick, and ties break toward it —
// so the winner's measured miss count is ≤ the analytic plan's by
// construction, and autotuning can only confirm or improve, never
// regress.
//
// The measured replays run under a "tournament" span in ctx recording
// the candidate count, winner rank, and measured misses.
func RunTournament(ctx context.Context, a *footprint.Analysis, opts TournamentOptions) (*Result, error) {
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("autotune: need at least one processor")
	}
	if opts.K < 1 {
		opts.K = 4
	}
	if opts.Strategy == "" {
		opts.Strategy = "rect"
	}
	if opts.MaxSkew <= 0 {
		opts.MaxSkew = 3
	}
	fp := opts.Fingerprint
	if fp.Schema == 0 {
		fp = ModelFingerprint()
	}
	ctx, osp := obs.StartSpan(ctx, "tournament")
	defer osp.End()
	osp.SetAttr("strategy", opts.Strategy)
	osp.SetAttr("k", opts.K)

	var tiles []tile.Tile
	var predicted []float64
	var exactness []footprint.Exactness
	fam, ok := partition.Lookup(opts.Strategy)
	if ok {
		plans, err := fam.TopK(a, opts.Procs, opts.K, partition.TopKOptions{MaxSkew: opts.MaxSkew})
		if errors.Is(err, partition.ErrNoTopK) {
			ok = false
		} else if err != nil {
			return nil, err
		}
		for _, p := range plans {
			if p.Tile == nil {
				continue // slab plans have no tiling to replay
			}
			tiles = append(tiles, *p.Tile)
			predicted = append(predicted, p.PredictedFootprint)
			exactness = append(exactness, p.Exactness)
		}
	}
	if !ok {
		return nil, fmt.Errorf("autotune: unknown tournament strategy %q (want rect, skewed, or lowerbound)", opts.Strategy)
	}

	reg := telemetry.Active()
	res := &Result{Fingerprint: fp, Strategy: opts.Strategy, Procs: opts.Procs, CacheLines: opts.CacheLines}
	if opts.Strategy == "rect" || opts.Strategy == "lowerbound" {
		// Both strategies contest only rectangular-grid tiles — the family
		// the Dinh–Demmel bound minimizes over — so the bound is a valid
		// floor for every candidate's CommWords column. Best-effort: a nest
		// the bound cannot qualify scores without the column.
		if lb, err := partition.CommLowerBound(a, opts.Procs); err == nil {
			res.CommLowerBound = lb.Words
		}
	}
	space := tile.BoundsOf(a.Nest)
	var mm *layout.MemoryMap
	if fp.LineElems > 1 {
		var err error
		if mm, err = layout.MapNest(a.Nest, fp.LineElems); err != nil {
			return nil, err
		}
	}
	for rank, tl := range tiles {
		tiling, err := tile.NewTiling(tl, space.Lo)
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %d: %w", rank, err)
		}
		asg, err := tile.Assign(tiling, space, opts.Procs)
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %d: %w", rank, err)
		}
		assign := asg.ProcOf

		cfg := fp.SimConfig(opts.Procs)
		cfg.CacheLines = opts.CacheLines
		cfg.ExpectedData = cachesim.ExpectedData(predicted[rank], opts.Procs)
		m, err := cachesim.New(cfg)
		if err != nil {
			return nil, err
		}
		if mm != nil {
			err = cachesim.RunNestLines(m, a.Nest, assign, mm)
		} else {
			err = cachesim.RunNest(m, a.Nest, assign)
		}
		if err != nil {
			return nil, fmt.Errorf("autotune: candidate %d replay: %w", rank, err)
		}
		met := m.Finish()

		c := Candidate{
			Rank:               rank,
			Tile:               tl,
			TileDesc:           tl.String(),
			PredictedFootprint: predicted[rank],
			Exactness:          exactness[rank].String(),
			MeasuredMisses:     met.Misses(),
			MeasuredCost:       met.Cost,
			MissesPerProc:      float64(met.Misses()) / float64(opts.Procs),
			CommWords:          -1,
		}
		if c.PredictedFootprint > 0 {
			c.DeltaPct = 100 * (c.MissesPerProc - c.PredictedFootprint) / c.PredictedFootprint
		}
		// Exact communication words per epoch, the second cost axis.
		// Best-effort: a candidate whose comm sets cannot be computed
		// still contests on misses.
		if comm, err := commsets.Compute(ctx, commsets.Spec{
			Analysis: a, Space: space, Procs: opts.Procs, Tile: &tl, Assign: assign,
		}, commsets.Options{}); err == nil {
			c.CommWords = comm.TotalWords
		}
		if opts.Exec {
			ns, err := execCandidate(a, opts.Procs, assign)
			if err != nil {
				return nil, fmt.Errorf("autotune: candidate %d exec: %w", rank, err)
			}
			c.ExecNs = ns
		}
		res.Candidates = append(res.Candidates, c)
		reg.Emit("autotune.tournament.candidate", c.TileDesc, map[string]any{
			"rank":      rank,
			"predicted": c.PredictedFootprint,
			"measured":  c.MissesPerProc,
			"delta_pct": c.DeltaPct,
			"misses":    c.MeasuredMisses,
			"cost":      c.MeasuredCost,
		})
	}

	// Measured selection: fewest misses, ties to lowest cost, ties to
	// the better analytic rank. sort.SliceStable would reorder; keep the
	// candidates in analytic order and pick the winner by index so the
	// report shows both rankings.
	res.Winner = 0
	for i := 1; i < len(res.Candidates); i++ {
		w, c := res.Candidates[res.Winner], res.Candidates[i]
		if c.MeasuredMisses < w.MeasuredMisses ||
			(c.MeasuredMisses == w.MeasuredMisses && c.MeasuredCost < w.MeasuredCost) {
			res.Winner = i
		}
	}
	w := res.WinnerCandidate()
	reg.Emit("autotune.tournament.chosen", w.TileDesc, map[string]any{
		"rank":       w.Rank,
		"misses":     w.MeasuredMisses,
		"improved":   res.Improved(),
		"candidates": len(res.Candidates),
	})
	reg.Counter("autotune.tournaments").Add(1)
	osp.SetAttr("candidates", int64(len(res.Candidates)))
	osp.SetAttr("winner_rank", w.Rank)
	osp.SetAttr("winner_misses", w.MeasuredMisses)
	osp.SetAttr("improved", res.Improved())
	if res.Improved() {
		reg.Counter("autotune.tournaments.improved").Add(1)
	}
	return res, nil
}

// execCandidate runs the nest for real under the assignment and returns
// the wall-clock nanoseconds.
func execCandidate(a *footprint.Analysis, procs int, assign func(p []int64) int) (int64, error) {
	st, err := exec.StoreFor(a.Nest)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := exec.RunParallel(a.Nest, st, procs, assign); err != nil {
		return 0, err
	}
	return time.Since(start).Nanoseconds(), nil
}

// SortedByMeasured returns candidate indices ordered by the measured
// ranking (misses, then cost, then analytic rank) — the order a report
// consumer would re-rank the analytic candidates into.
func (r *Result) SortedByMeasured() []int {
	idx := make([]int, len(r.Candidates))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := r.Candidates[idx[x]], r.Candidates[idx[y]]
		if a.MeasuredMisses != b.MeasuredMisses {
			return a.MeasuredMisses < b.MeasuredMisses
		}
		if a.MeasuredCost != b.MeasuredCost {
			return a.MeasuredCost < b.MeasuredCost
		}
		return a.Rank < b.Rank
	})
	return idx
}
