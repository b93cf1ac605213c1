package looppart

import (
	"context"
	"testing"

	"looppart/internal/paperex"
)

func serveOne(t *testing.T, svc *Service, req PlanRequest) *PlanResponse {
	t.Helper()
	resp, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// MustDecode returns resp's decoded result, failing the test if Raw does
// not decode. It is exported for the external test package as well.
func MustDecode(t testing.TB, resp *PlanResponse) *PlanResult {
	t.Helper()
	res, err := resp.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVerifyServedPlan(t *testing.T) {
	svc := NewService(ServiceOptions{})
	for _, tc := range []struct {
		name string
		req  PlanRequest
	}{
		{"rect", PlanRequest{Source: paperex.Example8, Params: map[string]int64{"N": 16}, Procs: 4, Strategy: "rect"}},
		{"comm-free", PlanRequest{Source: "doall (i, 0, 15) doall (j, 0, 15) A[i] = A[i] + B[i, j] enddoall enddoall", Procs: 4, Strategy: "comm-free"}},
		{"skewed", PlanRequest{Source: paperex.Example8, Params: map[string]int64{"N": 12}, Procs: 4, Strategy: "skewed"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := serveOne(t, svc, tc.req)
			rep := svc.Verify(tc.req, MustDecode(t, resp))
			if !rep.OK() {
				t.Fatalf("served %s plan fails its own self-check: %v", tc.name, rep)
			}
			if len(rep.Checks) < 3 {
				t.Errorf("verification block looks empty: %d checks", len(rep.Checks))
			}
		})
	}
}

// An intentionally corrupted plan — tile extents that no longer cover the
// space the way the rendered string claims, a wrong processor count, a
// broken slab — must be rejected by Verify.
func TestVerifyRejectsCorruptedPlan(t *testing.T) {
	svc := NewService(ServiceOptions{})
	req := PlanRequest{Source: paperex.Example8, Params: map[string]int64{"N": 16}, Procs: 4, Strategy: "rect"}
	served := MustDecode(t, serveOne(t, svc, req))

	cases := []struct {
		name   string
		mutate func(r *PlanResult)
	}{
		{"tampered extents", func(r *PlanResult) { r.TileExtents[0] = r.TileExtents[0] * 3 }},
		{"negative extent", func(r *PlanResult) { r.TileExtents[0] = -1 }},
		{"wrong kind", func(r *PlanResult) { r.Kind = "slab"; r.SlabNormal = nil }},
		{"unknown strategy", func(r *PlanResult) { r.Resolved = "bogus" }},
		{"wrong procs", func(r *PlanResult) { r.Procs = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := *served
			r.TileExtents = append([]int64(nil), served.TileExtents...)
			tc.mutate(&r)
			rep := svc.Verify(req, &r)
			if rep.OK() {
				t.Fatalf("corrupted plan (%s) passed verification: %v", tc.name, rep)
			}
		})
	}
}

func TestPlanFromResultRoundTrip(t *testing.T) {
	svc := NewService(ServiceOptions{})
	req := PlanRequest{Source: paperex.Example8, Params: map[string]int64{"N": 16}, Procs: 4, Strategy: "rect"}
	served := MustDecode(t, serveOne(t, svc, req))

	prog, err := Parse(req.Source, req.Params)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := prog.PlanFromResult(served)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.String(); got != served.Rendered {
		t.Fatalf("reconstructed plan renders %q, served plan rendered %q", got, served.Rendered)
	}
	if rep := plan.SelfCheck(); !rep.OK() {
		t.Fatalf("reconstructed plan fails self-check: %v", rep)
	}
}
