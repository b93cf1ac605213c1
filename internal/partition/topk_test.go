package partition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
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
		// overflow: every candidate's Theorem 2 terms exceed int64, so the
		// closed-form sum and the per-tile model both score +Inf, and
		// both searches must return an error wrapping ErrOverflow rather
		// than a plan JSON cannot encode.
		overflow bool
		// someInf: some candidates, not all, score +Inf.
		someInf bool
	}{
		"example3": {paperex.Example3, map[string]int64{"N": 24}, 8, false, false},
		"example8": {paperex.Example8, map[string]int64{"N": 24}, 8, false, false},
		// |det G'| = 1.6e9 against a per-processor volume of 1e10: every
		// volume term is 1.6e19.
		"overflow": {"doall (i, 1, 100000) doall (j, 1, 100000) A[40000*i, 40000*j] = A[40000*i + 1, 40000*j] + A[40000*i, 40000*j + 2] enddoall enddoall", nil, 1, true, false},
		// The identity candidates' volume term is 16 × 3.1e18, and every
		// shear keeps |det G'|.
		"overflow-shear": {"doall (i, 1, 8) doall (j, 1, 8) A[3100000000000000000*i, j] = A[3100000000000000000*i, j + 1] + A[3100000000000000000*i, j + 2] enddoall enddoall", nil, 4, true, false},
		// At volume 1 the identity skew's terms fit (3.1e18 and 2·3.1e18),
		// a ±2 shear's row terms (4·3.1e18) do not: those candidates score
		// +Inf, are never ranked, and the finite identity wins.
		"overflow-shear-only": {"doall (i, 1, 8) doall (j, 1, 8) A[3100000000000000000*i, j] = A[3100000000000000000*i, j + 1] + A[3100000000000000000*i, j + 2] enddoall enddoall", nil, 64, false, true},
	} {
		a := analysisFor(t, tc.src, tc.params)
		argmin, err := OptimizeSkew(context.Background(), a, tc.procs, 2)
		top, topErr := OptimizeSkewTopK(a, tc.procs, 2, 3)
		if tc.overflow {
			if !errors.Is(err, intmat.ErrOverflow) || !errors.Is(topErr, intmat.ErrOverflow) {
				t.Errorf("%s: argmin %v, %v; top-K %v, %v; want errors wrapping ErrOverflow", name, argmin, err, top, topErr)
			}
			continue
		}
		if tc.someInf {
			space, err := newSkewSpace(a, tc.procs, 2)
			if err != nil {
				t.Fatal(err)
			}
			inf := 0
			for _, c := range space.scan(false).cands {
				if math.IsInf(c.fp, 1) {
					inf++
				}
			}
			if inf == 0 {
				t.Errorf("%s: no candidate overflowed; the case no longer tests what it names", name)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if topErr != nil {
			t.Fatalf("%s: %v", name, topErr)
		}
		if got, want := top[0].Tile.String(), argmin.Tile.String(); got != want {
			t.Errorf("%s: topk[0] tile %s, argmin tile %s", name, got, want)
		}
		if argmin.PredictedFootprint <= 0 || math.IsInf(argmin.PredictedFootprint, 1) {
			t.Errorf("%s: argmin %v scores no finite footprint; every tile touches an element", name, argmin)
		}
		if top[0].PredictedFootprint != argmin.PredictedFootprint {
			t.Errorf("%s: topk[0] fp %.4g, argmin fp %.4g",
				name, top[0].PredictedFootprint, argmin.PredictedFootprint)
		}
		for i := 1; i < len(top); i++ {
			if top[i].PredictedFootprint < top[i-1].PredictedFootprint {
				t.Errorf("%s: rank %d better than rank %d", name, i, i-1)
			}
			if math.IsInf(top[i].PredictedFootprint, 1) {
				t.Errorf("%s: rank %d scored +Inf; overflowed candidates are never ranked", name, i)
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
