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
