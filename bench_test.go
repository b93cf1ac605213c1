package looppart_test

// The paper-reproduction benchmark harness: one benchmark per experiment
// (the paper's worked examples and figures — it publishes no numbered
// tables; see DESIGN.md §2). Each benchmark regenerates its experiment's
// measured rows; run with
//
//	go test -bench=. -benchmem
//
// and compare against EXPERIMENTS.md. Failing claims abort the benchmark.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"looppart"
	"looppart/internal/cluster"
	"looppart/internal/commsets"
	"looppart/internal/experiments"
	"looppart/internal/footprint"
	"looppart/internal/paperex"
	"looppart/internal/partition"
	"looppart/internal/server"
)

func benchExperiment(b *testing.B, run func() experiments.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := run()
		if r.Err != nil {
			b.Fatalf("%s errored: %v", r.ID, r.Err)
		}
		if !r.Pass {
			b.Fatalf("%s no longer reproduces the paper:\n%s", r.ID, r)
		}
	}
}

func BenchmarkE1_Example2(b *testing.B)            { benchExperiment(b, experiments.E1) }
func BenchmarkE2_Example3(b *testing.B)            { benchExperiment(b, experiments.E2) }
func BenchmarkE3_Example6(b *testing.B)            { benchExperiment(b, experiments.E3) }
func BenchmarkE4_CumulativeFootprint(b *testing.B) { benchExperiment(b, experiments.E4) }
func BenchmarkE5_Example8(b *testing.B)            { benchExperiment(b, experiments.E5) }
func BenchmarkE6_Doseq(b *testing.B)               { benchExperiment(b, experiments.E6) }
func BenchmarkE7_Example9(b *testing.B)            { benchExperiment(b, experiments.E7) }
func BenchmarkE8_Example10(b *testing.B)           { benchExperiment(b, experiments.E8) }
func BenchmarkE9_LatticeUnion(b *testing.B)        { benchExperiment(b, experiments.E9) }
func BenchmarkE10_CommFree(b *testing.B)           { benchExperiment(b, experiments.E10) }
func BenchmarkE11_MatmulSync(b *testing.B)         { benchExperiment(b, experiments.E11) }
func BenchmarkE12_DataPart(b *testing.B)           { benchExperiment(b, experiments.E12) }
func BenchmarkE13_RankDeficient(b *testing.B)      { benchExperiment(b, experiments.E13) }
func BenchmarkE14_AblationAH(b *testing.B)         { benchExperiment(b, experiments.E14) }

// Pipeline throughput benchmarks: the compile-time cost of the analysis
// itself, which the paper argues is low ("because they deal only with
// index expressions, the algorithms are computationally efficient").

func BenchmarkAnalyzePipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := looppart.Parse(paperex.Example10, map[string]int64{"N": 512}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionRect(b *testing.B) {
	prog := looppart.MustParse(paperex.Example8, map[string]int64{"N": 96})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Partition(64, looppart.Rect); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionAuto(b *testing.B) {
	prog := looppart.MustParse(paperex.Example2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Partition(100, looppart.Auto); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateExample2(b *testing.B) {
	prog := looppart.MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, looppart.Columns)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Simulate(looppart.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteMatmul(b *testing.B) {
	prog := looppart.MustParse(paperex.MatmulSync, map[string]int64{"N": 16})
	plan, err := prog.Partition(4, looppart.Blocks)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// Search-layer and simulator-layer benchmarks: the partition searches and
// the cache simulator are the hot paths that must scale with processor
// count and problem size. scripts/bench.sh runs these and records the
// trajectory in BENCH_PARTITION.json.

func benchAnalysis(b *testing.B, src string, params map[string]int64) *footprint.Analysis {
	b.Helper()
	prog, err := looppart.Parse(src, params)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Analysis
}

func BenchmarkRectSearch(b *testing.B) {
	a := benchAnalysis(b, paperex.Example8, map[string]int64{"N": 96})
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := partition.OptimizeRect(context.Background(), a, procs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSkewSearch(b *testing.B) {
	skew := func(a *footprint.Analysis, procs int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := partition.OptimizeSkew(context.Background(), a, procs, 2); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// Example 8's reduced Gs are square: every candidate takes Theorem
	// 2's closed form.
	a := benchAnalysis(b, paperex.Example8, map[string]int64{"N": 24})
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("P=%d", procs), skew(a, procs))
	}
	// matmul's A[i,k], B[k,j] and C[i,j] project the 3-D space onto 2-D:
	// every candidate is scored by exact enumeration of its tile points.
	b.Run("matmulsync/P=16", skew(benchAnalysis(b, paperex.MatmulSync, map[string]int64{"N": 12}), 16))
}

func BenchmarkCachesimReplay(b *testing.B) {
	prog := looppart.MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, looppart.Columns)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Simulate(looppart.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCommNest is a forward RAW stencil: both references hit the same
// array, so the rect plan has genuine producer→consumer transfer sets.
const benchCommNest = `
doall (i, 1, N)
  doall (j, 1, N)
    A[i, j] = A[i + 1, j] + A[i, j + 2] + 1
  enddoall
enddoall
`

// BenchmarkCommSetsAnalyze measures the exact communication-set
// analysis on a 512×512 nest — a quarter-million iteration points the
// analytic engine never enumerates (box algebra in lattice coefficient
// space only), which is the point of the closed-form path.
func BenchmarkCommSetsAnalyze(b *testing.B) {
	prog := looppart.MustParse(benchCommNest, map[string]int64{"N": 512})
	plan, err := prog.Partition(64, looppart.Rect)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm, err := plan.CommSetsCtx(context.Background(), commsets.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if comm.TotalWords == 0 {
			b.Fatal("expected communication")
		}
	}
}

// BenchmarkLowerBound measures the Dinh–Demmel communication lower
// bound: per-class lattice offsets once, then a closed-form word count
// per factorization grid — no iteration-space enumeration at any size.
func BenchmarkLowerBound(b *testing.B) {
	a := benchAnalysis(b, benchCommNest, map[string]int64{"N": 512})
	for _, procs := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lb, err := partition.CommLowerBound(a, procs)
				if err != nil {
					b.Fatal(err)
				}
				if lb.Words == 0 {
					b.Fatal("expected a nonzero bound on the RAW stencil")
				}
			}
		})
	}
}

// BenchmarkMsgexecRun measures a full message-passing execution —
// per-processor private stores, bulk-synchronous epochs, exchange of the
// exact transfer sets, and the value check against the sequential run.
func BenchmarkMsgexecRun(b *testing.B) {
	prog := looppart.MustParse(benchCommNest, map[string]int64{"N": 64})
	plan, err := prog.Partition(8, looppart.Rect)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := plan.ExecuteMessagePassing()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.ValuesChecked {
			b.Fatal("value check skipped")
		}
	}
}

func BenchmarkE15_CacheLines(b *testing.B)     { benchExperiment(b, experiments.E15) }
func BenchmarkE16_SmallCache(b *testing.B)     { benchExperiment(b, experiments.E16) }
func BenchmarkE17_SpreadAblation(b *testing.B) { benchExperiment(b, experiments.E17) }

func BenchmarkE18_LineShapes(b *testing.B) { benchExperiment(b, experiments.E18) }

func BenchmarkE19_Placement(b *testing.B) { benchExperiment(b, experiments.E19) }

func BenchmarkE20_ModelAccuracy(b *testing.B) { benchExperiment(b, experiments.E20) }

func BenchmarkE21_VsRuntimeSched(b *testing.B) { benchExperiment(b, experiments.E21) }

// Serving-layer benchmarks: the latency a looppartd client sees on a
// cache miss (full search) versus a cache hit (canonical-key lookup),
// and batch throughput through the HTTP layer. Recorded in
// BENCH_PARTITION.json as current-only rows (the serving layer has no
// pre-optimization baseline).

func BenchmarkServePlanMiss(b *testing.B) {
	req := looppart.PlanRequest{
		Source: paperex.Example8, Params: map[string]int64{"N": 24},
		Procs: 64, Strategy: "skewed",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := looppart.NewService(looppart.ServiceOptions{})
		if _, err := svc.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePlanMissClosedForm is the cold-plan latency of a rect
// plan at P=256 on Example 8, whose classes all score in closed form: its
// rect scan runs inline and allocates nothing per candidate, and the miss
// pipeline must hold the plan under a millisecond. The name is older than
// the inline scan; it stays so the BENCH_PARTITION.json row remains
// comparable across records.
func BenchmarkServePlanMissClosedForm(b *testing.B) {
	req := looppart.PlanRequest{
		Source: paperex.Example8, Params: map[string]int64{"N": 96},
		Procs: 256, Strategy: "rect",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := looppart.NewService(looppart.ServiceOptions{})
		if _, err := svc.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServePlanHit(b *testing.B) {
	req := looppart.PlanRequest{
		Source: paperex.Example8, Params: map[string]int64{"N": 24},
		Procs: 64, Strategy: "skewed",
	}
	svc := looppart.NewService(looppart.ServiceOptions{})
	if _, err := svc.Plan(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Plan(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Hit() {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServePlanPeerFill measures a cross-replica miss: a fresh
// replica misses locally, fetches the key owner's canonical bytes over
// HTTP (/v1/peer/plan), validates and admits them. The owner already
// has the plan cached, so this is the pure peer-fill round-trip a warm
// fleet pays on a replica's first contact with a key — the alternative
// to the full search BenchmarkServePlanMiss pays.
func BenchmarkServePlanPeerFill(b *testing.B) {
	req := looppart.PlanRequest{
		Source: paperex.Example8, Params: map[string]int64{"N": 24},
		Procs: 64, Strategy: "skewed",
	}
	owner := looppart.NewService(looppart.ServiceOptions{})
	ts := httptest.NewServer(server.New(server.Config{Service: owner}).Handler())
	defer ts.Close()
	if _, err := owner.Plan(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	// Self is absent from the member list, so every key is peer-owned
	// and every iteration fills. Hedging off: one measured round-trip.
	fill := cluster.New(cluster.Options{
		Self:       "http://bench.invalid",
		Members:    []string{ts.URL},
		HedgeDelay: -1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := looppart.NewService(looppart.ServiceOptions{PeerFill: fill})
		resp, err := svc.Plan(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != "peer" {
			b.Fatalf("status %s, want peer", resp.Status)
		}
	}
}

func BenchmarkServeBatch(b *testing.B) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	ts := httptest.NewServer(server.New(server.Config{Service: svc}).Handler())
	defer ts.Close()

	reqs := make([]looppart.PlanRequest, 8)
	for i := range reqs {
		// Two distinct keys per batch; the rest are duplicates that
		// collapse through the cache and singleflight group.
		reqs[i] = looppart.PlanRequest{
			Source: paperex.Example8, Params: map[string]int64{"N": 24},
			Procs: 8 << (i % 2), Strategy: "rect",
		}
	}
	body, err := json.Marshal(struct {
		Requests []looppart.PlanRequest `json:"requests"`
	}{reqs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
