package looppart

import (
	"context"
	"testing"

	"looppart/internal/loopir"
)

// FuzzPlanPipeline drives the full served pipeline — parse → analyze →
// optimize → encode → reconstruct → verify — on fuzzer-mutated sources,
// processor counts, and strategies. Every plan the service answers with
// must survive its own self-check: reconstructable from the serialized
// fields, rendering byte-identically, covering the iteration space, and
// (for enumerable tiles) with a footprint model that matches enumeration
// under the documented rules.
func FuzzPlanPipeline(f *testing.F) {
	f.Add("doall (i, 0, 15) doall (j, 0, 15) A[i, j] = A[i, j - 1] + A[i - 1, j] enddoall enddoall", 4, 0)
	f.Add("doall (i, 0, 15) doall (j, 0, 15) A[i] = A[i] + B[i, j] enddoall enddoall", 4, 0)
	f.Add("doall (i, 1, 12) doall (j, 1, 12) B[i, j] = B[i - 1, j + 1] + B[i + 1, j] enddoall enddoall", 4, 2)
	f.Add("doall (i, 0, 11) A[2*i] = A[2*i + 3] enddoall", 3, 1)
	f.Fuzz(func(t *testing.T, src string, procs, stratIdx int) {
		n, err := loopir.Parse(src, nil)
		if err != nil || n.Validate() != nil || !fuzzPlannable(n) {
			t.Skip()
		}
		if procs < 1 {
			procs = 1
		}
		procs = 1 + (procs-1)%8
		strategies := []Strategy{Auto, Rect, Skewed, Rows, Columns, Blocks}
		if stratIdx < 0 {
			stratIdx = -stratIdx
		}
		strategy := strategies[stratIdx%len(strategies)]

		svc := NewService(ServiceOptions{})
		req := PlanRequest{Source: src, Procs: procs, Strategy: strategy.String()}
		resp, err := svc.Plan(context.Background(), req)
		if err != nil {
			t.Skip() // unplannable nests are rejections, not failures
		}
		if rep := svc.Verify(req, MustDecode(t, resp)); !rep.OK() {
			t.Fatalf("served plan fails verification for procs=%d strategy=%s:\n%s\n%v",
				procs, strategy, src, rep)
		}
	})
}

// FuzzPlanNumbers is FuzzPlanPipeline without the coefficient filter:
// subscripts take any int64, and the property is the one
// TestPlanNumbersCorpus checks — no stage of the served pipeline panics,
// and every overflow is an error wrapping intmat.ErrOverflow. The seeds
// are nests that once panicked the daemon (HNF, exact enumeration, the
// comm-free search, the column reduction, the spread solve, commsets).
func FuzzPlanNumbers(f *testing.F) {
	f.Add("doall (i, 1, 64) doall (j, 1, 64) A[i, j] = A[i+4611686018427387904, j+1] + A[i, j+2] enddoall enddoall", 4, 0)
	f.Add("doall (i, 1, 8) A[1*i+235782974174] = A[-2305843009213693950*i-4] enddoall", 1, 1)
	f.Add("doall (i, 1, 8) A[1*i+235782974174] = A[-2305843009213693950*i-4] enddoall", 1, 2)
	f.Add("doall (i, 1, 64) doall (j, 1, 64) A[2305843009213693952*i+3*j, 5*i+2305843009213693951*j] = A[2305843009213693952*i+3*j+1, 5*i+2305843009213693951*j+7] enddoall enddoall", 4, 0)
	f.Add("doall (i, -3, -1) doall (j, 1, 8) A[-1152921504606846976*i-2*j+284094148084] = A[312685716243*i-4*j+562949953421314] + A[-281474976710654*i-68719476736*j+1073741823] enddoall enddoall", 6, 2)
	f.Add("doall (i, -2, 5) doall (j, 2, 10) A[-351516070451*i-4*j-549755813886, 288230376151711744*i-4*j+17179869183] = A[1*i-548261507623*j-4, -68719476736*i+8796093022206*j+0] + B[-3*i-347967254036*j+0, -18014398509481985*i+2*j-4] enddoall enddoall", 6, 0)
	f.Add("doall (i, 0, 2) doall (j, 0, 6) doall (k, -1, 3) A[-4*i+3*j+1*k+4] = A[274877906942*i+403275342433*j-576460752303423489*k-3] + B[-140737488355329*i+485237764338*j-2*k+2] + B[-425767251349*i-4*j-1*k-289716700097] enddoall enddoall enddoall", 7, 0)
	f.Add("doall (i, 2, 8) doall (j, 2, 6) A[476073912044*i+4*j+32998660690, 4*i-2*j+281474976710658] = B[3*i+3*j+3, 3*i+195180465092*j+0] + B[244576391032*i+4*j-3, -1099511627775*i+2*j-2] + A[-415895035477*i-72467384256*j-1, 1*i+4*j+4] enddoall enddoall", 5, 1)
	f.Add("doall (i, 0, 7) doall (j, 3, 6) A[70368744177662*i+549755813889, -4611686018427387904*i-3*j-197989675601, -1*i-4294967294*j-420122382585] = B[-229109183588*j+17592186044418, 466415563684*i-1*j-3, 576460752303423488*i+2*j+4] + A[-1*i+2*j+3, 2*i+1152921504606846975*j+209679506994, 35184372088832*i-1125899906842622*j+0] enddoall enddoall", 3, 4)
	f.Fuzz(func(t *testing.T, src string, procs, stratIdx int) {
		n, err := loopir.Parse(src, nil)
		if err != nil || !numbersPlannable(n) {
			t.Skip()
		}
		if procs < 1 {
			procs = 1
		}
		procs = 1 + (procs-1)%8
		if stratIdx < 0 {
			stratIdx = -stratIdx
		}
		planNumbers(t, NewService(ServiceOptions{}), src, procs, numbersStrategies[stratIdx%len(numbersStrategies)])
	})
}

// numbersPlannable bounds the shape of FuzzPlanNumbers' nests so a run
// stays fast, and leaves their numbers alone.
func numbersPlannable(n *loopir.Nest) bool {
	if len(n.Loops) > 3 || len(n.Body) > 4 {
		return false
	}
	space := int64(1)
	for _, l := range n.Loops {
		if l.SymHi != "" || l.Lo < -64 || l.Hi > 64 {
			return false
		}
		if space *= l.Extent(); space > 1<<12 {
			return false
		}
	}
	for _, acc := range n.Accesses() {
		if len(acc.Ref.Subs) > 3 {
			return false
		}
	}
	return true
}

// fuzzPlannable bounds fuzzer-built nests so planning and verification
// stay fast and the checked arithmetic stays far from the int64 cliffs.
func fuzzPlannable(n *loopir.Nest) bool {
	if len(n.Loops) > 3 || len(n.Body) > 4 {
		return false
	}
	space := int64(1)
	for _, l := range n.Loops {
		if l.Lo < -32 || l.Hi > 32 {
			return false
		}
		space *= l.Extent()
		if space > 1<<12 {
			return false
		}
	}
	for _, acc := range n.Accesses() {
		if len(acc.Ref.Subs) > 3 {
			return false
		}
		for _, sub := range acc.Ref.Subs {
			if sub.Const < -32 || sub.Const > 32 {
				return false
			}
			for _, c := range sub.Coef {
				if c < -4 || c > 4 {
					return false
				}
			}
		}
	}
	return true
}
