package partition

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/obs"
	"looppart/internal/paperex"
)

// referenceFactorizations is the original recursive enumerator, kept as
// the test oracle for the iterative preallocated replacement.
func referenceFactorizations(n int64, k int) [][]int64 {
	if k == 1 {
		return [][]int64{{n}}
	}
	var out [][]int64
	for d := int64(1); d <= n; d++ {
		if n%d != 0 {
			continue
		}
		for _, rest := range referenceFactorizations(n/d, k-1) {
			out = append(out, append([]int64{d}, rest...))
		}
	}
	return out
}

func TestFactorizationsMatchReference360(t *testing.T) {
	got := factorizations(360, 3)
	want := referenceFactorizations(360, 3)
	if len(got) != len(want) {
		t.Fatalf("factorizations(360,3) = %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("factorizations(360,3)[%d] = %v, want %v (order must match the reference)", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(got[0], []int64{1, 1, 360}) {
		t.Errorf("first tuple = %v, want [1 1 360]", got[0])
	}
	if !reflect.DeepEqual(got[len(got)-1], []int64{360, 1, 1}) {
		t.Errorf("last tuple = %v, want [360 1 1]", got[len(got)-1])
	}
}

func TestFactorizationsCountPinned(t *testing.T) {
	// d(360) with multiplicity over ordered 3-tuples: Π C(eᵢ+2, 2) for
	// 360 = 2³·3²·5 gives 10·6·3 = 180.
	if got := len(factorizations(360, 3)); got != 180 {
		t.Errorf("len(factorizations(360,3)) = %d, want 180", got)
	}
}

// searchCases are the analyses the engine tests sweep — E5/E7/E8's nests
// at their experiment parameters; matmul, whose projecting classes
// (non-square reduced G) the skewed search scores by exact tile
// enumeration on the concurrent workers; and seven small nests on either
// side of the closed-form model's domain. The rect scan runs inline on
// nests whose every class scores in closed form and on the worker pool
// otherwise, so the sweep covers both.
func searchCases(t *testing.T) map[string]struct {
	src    string
	params map[string]int64
	procs  int
} {
	t.Helper()
	return map[string]struct {
		src    string
		params map[string]int64
		procs  int
	}{
		"example8":   {paperex.Example8, map[string]int64{"N": 24}, 8},
		"example9":   {paperex.Example9, map[string]int64{"N": 24}, 8},
		"example10":  {paperex.Example10, map[string]int64{"N": 36}, 6},
		"matmulsync": {paperex.MatmulSync, map[string]int64{"N": 8}, 16},
		// Example 8's geometry: nearest-neighbor stencil, spread (1, 1) « N.
		"stencil2d": {"doall (i, 0, 95) doall (j, 0, 95) A[i, j] = A[i - 1, j] + A[i, j - 1] enddoall enddoall", nil, 60},
		// Non-unit coefficients, still square and dominating.
		"coeff2": {"doall (i, 0, 31) doall (j, 0, 31) B[2*i, j] = B[2*i - 2, j + 1] enddoall enddoall", nil, 12},
		// Three-deep symmetric stencil.
		"stencil3d": {"doall (i, 0, 23) doall (j, 0, 23) doall (k, 0, 23) C[i, j, k] = C[i - 1, j, k] + C[i, j - 1, k] + C[i, j, k - 1] enddoall enddoall enddoall", nil, 16},
		// Extent equal to the spread coefficient (5 ≤ 5): §2.2's "tile
		// sizes large relative to the offsets" fails.
		"spread5": {"doall (i, 0, 4) doall (j, 0, 4) A[i, j] = A[i + 5, j] enddoall enddoall", nil, 4},
		// Extent one short of dominating (6 ≤ 6).
		"spread6": {"doall (i, 0, 5) doall (j, 0, 5) A[i, j] = A[i + 6, j] enddoall enddoall", nil, 4},
		// Dependent subscript columns: G has two identical columns, so the
		// §3.4.1 reduction leaves a non-square G' with no closed form.
		"dependent": {"doall (i, 0, 7) doall (j, 0, 7) A[i + j, i + j] = A[i + j - 1, i + j - 1] enddoall enddoall", nil, 16},
		// Rank-deficient single subscript over a 2-D space.
		"rankdeficient": {"doall (i, 0, 7) doall (j, 0, 7) A[i + j] = A[i + j - 1] enddoall enddoall", nil, 4},
	}
}

// TestSearchDeterministicAcrossPoolSizes pins the engine's core contract:
// the chosen plan is bit-identical whatever the worker count. The cases
// must reach both the inline and the pooled rect scan.
func TestSearchDeterministicAcrossPoolSizes(t *testing.T) {
	inline := 0
	for name, tc := range searchCases(t) {
		if footprint.NewEvaluator(analyze(t, tc.src, tc.params)).RectClosedForm() {
			inline++
		}
		t.Run(name, func(t *testing.T) {
			a := analyze(t, tc.src, tc.params)

			prev := SetSearchWorkers(1)
			defer SetSearchWorkers(prev)
			rectSeq, err := OptimizeRect(context.Background(), a, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			skewSeq, err := OptimizeSkew(context.Background(), a, tc.procs, 2)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{8, runtime.GOMAXPROCS(0)} {
				SetSearchWorkers(workers)
				rect, err := OptimizeRect(context.Background(), a, tc.procs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rect, rectSeq) {
					t.Errorf("workers=%d: OptimizeRect = %+v, sequential %+v", workers, rect, rectSeq)
				}
				skew, err := OptimizeSkew(context.Background(), a, tc.procs, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(skew, skewSeq) {
					t.Errorf("workers=%d: OptimizeSkew = %+v, sequential %+v", workers, skew, skewSeq)
				}
			}
		})
	}
	if n := len(searchCases(t)); inline == 0 || inline == n {
		t.Errorf("%d of %d search cases scan inline; want both the inline and the pooled rect scan", inline, n)
	}
}

// TestPruningDoesNotChangePlan compares pruned and unpruned searches:
// the admissible lower bounds must never discard a winner.
func TestPruningDoesNotChangePlan(t *testing.T) {
	for name, tc := range searchCases(t) {
		t.Run(name, func(t *testing.T) {
			a := analyze(t, tc.src, tc.params)

			pruneDisabled.Store(true)
			rectFull, err1 := OptimizeRect(context.Background(), a, tc.procs)
			skewFull, err2 := OptimizeSkew(context.Background(), a, tc.procs, 2)
			pruneDisabled.Store(false)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}

			rect, err := OptimizeRect(context.Background(), a, tc.procs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rect, rectFull) {
				t.Errorf("pruned OptimizeRect = %+v, unpruned %+v", rect, rectFull)
			}
			skew, err := OptimizeSkew(context.Background(), a, tc.procs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(skew, skewFull) {
				t.Errorf("pruned OptimizeSkew = %+v, unpruned %+v", skew, skewFull)
			}
		})
	}
}

// TestSkewChosenCandidatesPerRun is the regression test for the chosen
// event reporting the cumulative process-wide counter instead of this
// run's count: two identical runs must report the same number.
func TestSkewChosenCandidatesPerRun(t *testing.T) {
	a := analyze(t, paperex.Example8, map[string]int64{"N": 12})
	log := obs.NewEventLog()
	ctx := obs.WithEvents(context.Background(), log)

	counts := make([]int64, 0, 2)
	for run := 0; run < 2; run++ {
		if _, err := OptimizeSkew(ctx, a, 4, 2); err != nil {
			t.Fatal(err)
		}
		events := eventsOfKind(log, "partition.skew.chosen")
		if len(events) != run+1 {
			t.Fatalf("run %d: %d chosen events, want %d", run, len(events), run+1)
		}
		v, ok := events[run].Fields["candidates"].(int64)
		if !ok {
			t.Fatalf("run %d: candidates field is %T, want int64", run, events[run].Fields["candidates"])
		}
		if v <= 0 {
			t.Fatalf("run %d: candidates = %d, want > 0", run, v)
		}
		counts = append(counts, v)
	}
	if counts[0] != counts[1] {
		t.Errorf("chosen event candidates differ across identical runs: %d then %d (cumulative counter leak)", counts[0], counts[1])
	}
}

// TestRectChosenReportsPruning checks the rect chosen event carries this
// run's evaluated/pruned split and that they account for every candidate.
func TestRectChosenReportsPruning(t *testing.T) {
	a := analyze(t, paperex.Example8, map[string]int64{"N": 96})
	log := obs.NewEventLog()
	if _, err := OptimizeRect(obs.WithEvents(context.Background(), log), a, 64); err != nil {
		t.Fatal(err)
	}
	events := eventsOfKind(log, "partition.rect.chosen")
	if len(events) != 1 {
		t.Fatalf("%d chosen events, want 1", len(events))
	}
	f := events[0].Fields
	evaluated, _ := f["evaluated"].(int64)
	pruned, _ := f["pruned"].(int64)
	if evaluated <= 0 {
		t.Errorf("evaluated = %d, want > 0", evaluated)
	}
	total := int64(len(factorizations(64, 3)))
	if evaluated+pruned > total {
		t.Errorf("evaluated %d + pruned %d exceeds candidate space %d", evaluated, pruned, total)
	}
}

// eventsOfKind returns log's events of one kind, in emission order.
func eventsOfKind(log *obs.EventLog, kind string) []obs.Event {
	var out []obs.Event
	for _, ev := range log.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// TestOptimizersSilentWithoutTelemetry pins the satellite fix: candidate
// scoring must not build event payloads when no event log is installed.
// (A crash or panic here would mean an unguarded Emit on a nil log.)
func TestOptimizersSilentWithoutTelemetry(t *testing.T) {
	if obs.EventsFrom(context.Background()) != nil {
		t.Fatal("test requires no installed event log")
	}
	a := analyze(t, paperex.Example8, map[string]int64{"N": 24})
	if _, err := OptimizeRect(context.Background(), a, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeSkew(context.Background(), a, 8, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeRectLines(a, 8, 4); err != nil {
		t.Fatal(err)
	}
}
