package partition

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"looppart/internal/paperex"
	"looppart/internal/telemetry"
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

// searchCases are the paper-example analyses the engine tests sweep —
// E5/E7/E8's nests at their experiment parameters, plus matmul, whose
// projecting classes (non-square reduced G) the skewed search scores by
// exact tile enumeration on the concurrent workers.
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
	}
}

// TestSearchDeterministicAcrossPoolSizes pins the engine's core contract:
// the chosen plan is bit-identical whatever the worker count.
func TestSearchDeterministicAcrossPoolSizes(t *testing.T) {
	for name, tc := range searchCases(t) {
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
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	counts := make([]int64, 0, 2)
	for run := 0; run < 2; run++ {
		if _, err := OptimizeSkew(context.Background(), a, 4, 2); err != nil {
			t.Fatal(err)
		}
		events := reg.EventsOfKind("partition.skew.chosen")
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
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	if _, err := OptimizeRect(context.Background(), a, 64); err != nil {
		t.Fatal(err)
	}
	events := reg.EventsOfKind("partition.rect.chosen")
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

// TestOptimizersSilentWithoutTelemetry pins the satellite fix: candidate
// scoring must not build telemetry payloads when no registry is active.
// (A crash or panic here would mean an unguarded Emit on a nil registry.)
func TestOptimizersSilentWithoutTelemetry(t *testing.T) {
	if telemetry.Enabled() {
		t.Fatal("test requires no active registry")
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
