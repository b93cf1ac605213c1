package msgexec

import (
	"context"
	"testing"

	"looppart/internal/commsets"
	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// plan builds the materialized communication sets for src under a
// hand-chosen rectangular tile, the same way the planner does.
func plan(t *testing.T, src string, tl tile.Tile, procs int) (*loopir.Nest, func([]int64) int, *commsets.Analysis) {
	t.Helper()
	n, err := loopir.Parse(src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := footprint.Analyze(n)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	space := tile.BoundsOf(n)
	tiling, err := tile.NewTiling(tl, space.Lo)
	if err != nil {
		t.Fatalf("tiling: %v", err)
	}
	asg, err := tile.Assign(tiling, space, procs)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	spec := commsets.Spec{Analysis: a, Space: space, Procs: procs, Tile: &tl, Assign: asg.ProcOf}
	comm, err := commsets.Compute(context.Background(), spec, commsets.Options{Materialize: true})
	if err != nil {
		t.Fatalf("commsets: %v", err)
	}
	return n, asg.ProcOf, comm
}

// TestRunMatchesSequential drives the message-passing executor against
// the sequential reference on forward-dependence nests: rectangular
// stencils, the paper's Example 2 skewed-subscript geometry, and a
// doseq-wrapped multi-epoch nest. Run under -race, this also checks the
// per-processor stores really are disjoint during the compute phase.
func TestRunMatchesSequential(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		tl     tile.Tile
		procs  int
		epochs int
	}{
		{"rect1d", "doall (i, 0, 63) A[i] = A[i + 1] + B[i] enddoall", tile.Rect(16), 4, 1},
		{"rect2d", "doall (i, 1, 24) doall (j, 1, 24) A[i, j] = A[i + 1, j] + A[i, j + 2] + 1 enddoall enddoall", tile.Rect(12, 12), 4, 1},
		{"skewed", "doall (i, 101, 140) doall (j, 1, 20) B[i+j, i-j-1] = B[i+j+4, i-j+3] + 1 enddoall enddoall", tile.Rect(10, 20), 4, 1},
		{"doseq", "doseq (s, 1, 4) doall (i, 1, 20) doall (j, 1, 20) A[i, j] = A[i + 1, j] + A[i, j + 1] enddoall enddoall enddoseq", tile.Rect(10, 10), 4, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, assign, comm := plan(t, tc.src, tc.tl, tc.procs)
			if !comm.CanCheckValues() {
				t.Fatalf("forward nest should be checkable: %+v", comm)
			}
			rep, err := Run(n, assign, comm)
			if err != nil {
				t.Fatalf("%v", err)
			}
			if !rep.ValuesChecked {
				t.Fatalf("value check did not run")
			}
			if rep.Epochs != tc.epochs {
				t.Fatalf("epochs = %d, want %d", rep.Epochs, tc.epochs)
			}
			if rep.WordsMoved != comm.TotalWords*int64(tc.epochs) {
				t.Fatalf("moved %d words, comm sets predict %d/epoch × %d", rep.WordsMoved, comm.TotalWords, tc.epochs)
			}
			if comm.TotalWords == 0 {
				t.Fatalf("fixture should communicate")
			}
		})
	}
}

// TestRunBackwardSkipsValueCheck: a backward dependence (A[i-1]) makes
// bulk-synchronous message passing diverge from the sequential order,
// so Run must still balance the books on words but not claim the value
// check.
func TestRunBackwardSkipsValueCheck(t *testing.T) {
	n, assign, comm := plan(t, "doall (i, 0, 31) A[i] = A[i - 1] + 1 enddoall", tile.Rect(8), 4)
	if comm.CanCheckValues() {
		t.Fatalf("backward RAW not flagged")
	}
	rep, err := Run(n, assign, comm)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.ValuesChecked {
		t.Fatalf("value check must be skipped for backward dependences")
	}
	if rep.WordsMoved != comm.TotalWords {
		t.Fatalf("moved %d, predicted %d", rep.WordsMoved, comm.TotalWords)
	}
}

// TestRunCommFree: a plan with no cross-tile dataflow moves zero words
// and still reproduces the sequential result.
func TestRunCommFree(t *testing.T) {
	n, assign, comm := plan(t, "doall (i, 0, 31) A[i] = B[i] + 1 enddoall", tile.Rect(8), 4)
	rep, err := Run(n, assign, comm)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if rep.WordsMoved != 0 || !rep.ValuesChecked {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRunRequiresMaterialized: counts-only analyses cannot drive an
// exchange.
func TestRunRequiresMaterialized(t *testing.T) {
	const src = "doall (i, 0, 31) A[i] = A[i + 1] enddoall"
	n, err := loopir.Parse(src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := footprint.Analyze(n)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	space := tile.BoundsOf(n)
	tl := tile.Rect(8)
	tiling, err := tile.NewTiling(tl, space.Lo)
	if err != nil {
		t.Fatalf("tiling: %v", err)
	}
	asg, err := tile.Assign(tiling, space, 4)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	comm, err := commsets.Compute(context.Background(), commsets.Spec{Analysis: a, Space: space, Procs: 4, Tile: &tl, Assign: asg.ProcOf}, commsets.Options{})
	if err != nil {
		t.Fatalf("commsets: %v", err)
	}
	if _, err := Run(n, asg.ProcOf, comm); err == nil {
		t.Fatalf("Run accepted a counts-only analysis")
	}
}

// TestRunOnTheTileRunner: message-passing epochs run on exec.RunTiles,
// so an installed trace sees one exec.epoch span per doseq epoch with a
// tile span per processor, and the exec.* metrics count the run.
func TestRunOnTheTileRunner(t *testing.T) {
	reg := telemetry.New()
	defer telemetry.SetActive(telemetry.SetActive(reg))
	proc := obs.NewTrace("test", "test", reg)
	defer obs.SetProcess(obs.SetProcess(proc))

	const procs, epochs = 4, 3
	n, assign, comm := plan(t, "doseq (s, 1, 3) doall (i, 0, 63) A[i] = A[i + 1] + B[i] enddoall enddoseq", tile.Rect(16), procs)
	if _, err := Run(n, assign, comm); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["exec.epochs"]; got != epochs {
		t.Errorf("exec.epochs = %d, want %d", got, epochs)
	}
	if got := snap.Counters["exec.iterations"]; got != 64 {
		t.Errorf("exec.iterations = %d, want 64", got)
	}
	var epochSpans, tileSpans int
	proc.Root().Snapshot().Walk(func(sp *obs.SpanSnapshot) {
		switch sp.Name {
		case "exec.epoch":
			epochSpans++
		case "exec.tile":
			tileSpans++
		}
	})
	if epochSpans != epochs || tileSpans != epochs*procs {
		t.Errorf("spans: %d exec.epoch, %d exec.tile; want %d, %d", epochSpans, tileSpans, epochs, epochs*procs)
	}
}
