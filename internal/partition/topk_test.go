package partition

import (
	"context"
	"fmt"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/paperex"
)

func analysisFor(t *testing.T, src string, params map[string]int64) *footprint.Analysis {
	t.Helper()
	n := paperex.MustParse(src, params)
	a, err := footprint.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRectTopKFirstMatchesArgmin(t *testing.T) {
	for name, src := range map[string]string{
		"example8":  paperex.Example8,
		"example9":  paperex.Example9,
		"example10": paperex.Example10,
	} {
		a := analysisFor(t, src, map[string]int64{"N": 24, "T": 2})
		for _, procs := range []int{4, 8, 16} {
			argmin, err := OptimizeRect(context.Background(), a, procs)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, procs, err)
			}
			top, err := OptimizeRectTopK(a, procs, 4)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, procs, err)
			}
			if got, want := fmt.Sprint(top[0]), fmt.Sprint(argmin); got != want {
				t.Errorf("%s P=%d: topk[0] = %s, argmin = %s", name, procs, got, want)
			}
		}
	}
}

func TestRectTopKRankedAndDeduplicated(t *testing.T) {
	a := analysisFor(t, paperex.Example8, map[string]int64{"N": 24})
	top, err := OptimizeRectTopK(a, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) < 2 {
		t.Fatalf("expected several ranked plans, got %d", len(top))
	}
	seen := map[string]bool{}
	for i, p := range top {
		key := fmt.Sprint(p.Ext)
		if seen[key] {
			t.Errorf("duplicate extents %s at rank %d", key, i)
		}
		seen[key] = true
		if i > 0 && p.PredictedFootprint < top[i-1].PredictedFootprint-betterEps {
			t.Errorf("rank %d footprint %.1f better than rank %d's %.1f",
				i, p.PredictedFootprint, i-1, top[i-1].PredictedFootprint)
		}
	}
}

func TestRectTopKDeterministicAcrossPoolSizes(t *testing.T) {
	a := analysisFor(t, paperex.Example8, map[string]int64{"N": 24})
	var want string
	for _, workers := range []int{1, 2, 8} {
		prev := SetSearchWorkers(workers)
		top, err := OptimizeRectTopK(a, 16, 5)
		SetSearchWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(top)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: %s != %s", workers, got, want)
		}
	}
}

func TestSkewTopKFirstMatchesArgmin(t *testing.T) {
	for name, tc := range map[string]struct {
		src    string
		params map[string]int64
		procs  int
	}{
		"example3": {paperex.Example3, map[string]int64{"N": 24}, 8},
		"example8": {paperex.Example8, map[string]int64{"N": 24}, 8},
		// |det G'| = 1.6e9 against a per-processor volume of 1e10: the
		// closed-form terms exceed int64 and must saturate on both paths.
		"overflow": {"doall (i, 1, 100000) doall (j, 1, 100000) A[40000*i, 40000*j] = A[40000*i + 1, 40000*j] + A[40000*i, 40000*j + 2] enddoall enddoall", nil, 1},
		// The identity skew's coefficients fit in int64, a shear's do not:
		// that shear's candidates score through the overflow-checked tile
		// model instead of leaving the class out of the sum.
		"overflow-shear": {"doall (i, 1, 8) doall (j, 1, 8) A[3100000000000000000*i, j] = A[3100000000000000000*i, j + 1] + A[3100000000000000000*i, j + 2] enddoall enddoall", nil, 4},
	} {
		a := analysisFor(t, tc.src, tc.params)
		argmin, err := OptimizeSkew(context.Background(), a, tc.procs, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		top, err := OptimizeSkewTopK(a, tc.procs, 2, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := top[0].Tile.String(), argmin.Tile.String(); got != want {
			t.Errorf("%s: topk[0] tile %s, argmin tile %s", name, got, want)
		}
		if argmin.PredictedFootprint <= 0 {
			t.Errorf("%s: argmin %v scores no footprint; every tile touches an element", name, argmin)
		}
		if top[0].PredictedFootprint != argmin.PredictedFootprint {
			t.Errorf("%s: topk[0] fp %.4g, argmin fp %.4g",
				name, top[0].PredictedFootprint, argmin.PredictedFootprint)
		}
		for i := 1; i < len(top); i++ {
			if top[i].PredictedFootprint < top[i-1].PredictedFootprint {
				t.Errorf("%s: rank %d better than rank %d", name, i, i-1)
			}
		}
	}
}

func TestTopKErrors(t *testing.T) {
	a := analysisFor(t, paperex.Example2, nil)
	if _, err := OptimizeRectTopK(a, 0, 3); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := OptimizeSkewTopK(a, 1<<40, 2, 3); err == nil {
		t.Error("more processors than iterations accepted")
	}
}
