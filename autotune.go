package looppart

import (
	"context"

	"looppart/internal/autotune"
	"looppart/internal/telemetry"
)

// AutotuneOptions parameterizes Program.Autotune.
type AutotuneOptions struct {
	// TopK is how many analytically ranked candidates contest the
	// tournament (default 4).
	TopK int
	// Fingerprint supplies the calibrated cost constants; zero value
	// means the paper's model defaults.
	Fingerprint autotune.Fingerprint
	// CacheLines bounds each simulated cache during the tournament
	// replays; 0 = infinite.
	CacheLines int
	// Exec additionally times each candidate on real goroutines
	// (reported, never used for selection).
	Exec bool
}

// Autotune partitions like Partition but arbitrates among the analytic
// search's top-K candidates by measured replay: the returned plan is the
// tournament winner, whose simulated miss count is never above the pure
// analytic plan's (candidate 0 is the argmin and ties break toward it).
//
// Strategy handling mirrors Partition: Auto resolves to comm-free when a
// communication-free hyperplane exists (already zero communication —
// there is nothing for a measured tournament to improve, so none runs
// and the Result is nil), otherwise to a rect tournament. Rect and
// Skewed run their tournaments directly. The naive strategies (rows,
// columns, blocks, abraham-hudak) are fixed shapes with no candidate set;
// they fall through to Partition with a nil Result.
//
// The tournament records a "tournament" span in ctx (candidates, winner
// rank, measured misses).
func (pr *Program) Autotune(ctx context.Context, procs int, strategy Strategy, opts AutotuneOptions) (*Plan, *autotune.Result, error) {
	reg := telemetry.Active()
	switch strategy {
	case Auto:
		if plan, err := pr.PartitionCtx(ctx, procs, CommFree); err == nil {
			reg.Emit("strategy.auto", "comm-free", map[string]any{
				"reason": "a communication-free hyperplane partition exists; no tournament needed",
			})
			return plan, nil, nil
		}
		reg.Emit("strategy.auto", "rect", map[string]any{
			"reason": "no communication-free partition; tournament over footprint-optimal rectangles",
		})
		return pr.Autotune(ctx, procs, Rect, opts)
	case Rect, Skewed:
		res, err := autotune.RunTournament(ctx, pr.Analysis, autotune.TournamentOptions{
			Procs:       procs,
			Strategy:    strategy.String(),
			K:           opts.TopK,
			Fingerprint: opts.Fingerprint,
			CacheLines:  opts.CacheLines,
			Exec:        opts.Exec,
		})
		if err != nil {
			return nil, nil, err
		}
		w := res.WinnerCandidate()
		plan, err := pr.tilePlan(strategy, procs, w.Tile, w.PredictedFootprint, 0)
		if err != nil {
			return nil, nil, err
		}
		if strategy == Rect {
			// Keep the traffic prediction the analytic rect plan carries.
			tr, _ := pr.Analysis.RectTotalTraffic(w.Tile.Extents())
			plan.PredictedTraffic = tr
		}
		return plan, res, nil
	default:
		plan, err := pr.PartitionCtx(ctx, procs, strategy)
		return plan, nil, err
	}
}
