package looppart

import (
	"fmt"
	"strings"
	"testing"

	"looppart/internal/obs"
	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

func TestParseAndReport(t *testing.T) {
	prog, err := Parse(paperex.Example10, map[string]int64{"N": 60})
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Classes) != 4 {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	if !r.HasClosed || r.RectCoeffs[0] != 3 || r.RectCoeffs[1] != 2 {
		t.Fatalf("coeffs = %v", r.RectCoeffs)
	}
	if len(r.CommFreeDirs) != 0 {
		t.Fatalf("Example 10 should have no comm-free dirs, got %v", r.CommFreeDirs)
	}
	s := r.String()
	for _, want := range []string{"uniformly intersecting classes: 4", "no communication-free partition"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestParseError(t *testing.T) {
	if _, err := Parse("garbage", nil); err == nil {
		t.Fatal("garbage parsed")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParse("garbage", nil)
}

func TestAutoPrefersCommFree(t *testing.T) {
	prog := MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != CommFree || plan.Slab == nil {
		t.Fatalf("auto plan = %v", plan)
	}
	m, err := plan.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.SharedData != 0 || m.CoherenceMisses != 0 {
		t.Fatalf("comm-free plan shares data: %v", m)
	}
}

func TestAutoFallsBackToRect(t *testing.T) {
	prog := MustParse(paperex.Example10, map[string]int64{"N": 40})
	plan, err := prog.Partition(16, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != Rect || plan.Tile == nil {
		t.Fatalf("auto plan = %v", plan)
	}
}

func TestStrategyOrderingExample2(t *testing.T) {
	// The headline experiment through the public API: columns beat
	// blocks beat rows on simulated misses.
	prog := MustParse(paperex.Example2, nil)
	miss := map[Strategy]float64{}
	for _, s := range []Strategy{Rows, Columns, Blocks} {
		plan, err := prog.Partition(100, s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := plan.Simulate(SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		miss[s] = m.MissesPerProc()
	}
	if !(miss[Columns] < miss[Blocks] && miss[Blocks] < miss[Rows]) {
		t.Fatalf("ordering wrong: %v", miss)
	}
	if miss[Columns] != 204 || miss[Blocks] != 240 {
		t.Fatalf("paper numbers: columns=%v blocks=%v", miss[Columns], miss[Blocks])
	}
}

func TestCommFreeFailsWhenNoneExists(t *testing.T) {
	prog := MustParse(paperex.Example10, map[string]int64{"N": 40})
	if _, err := prog.Partition(8, CommFree); err == nil {
		t.Fatal("comm-free should fail for Example 10")
	}
}

func TestSkewedStrategyExample3(t *testing.T) {
	prog := MustParse(paperex.Example3, map[string]int64{"N": 24})
	plan, err := prog.Partition(8, Skewed)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tile == nil || plan.Tile.IsRect() {
		t.Fatalf("skewed plan = %v", plan)
	}
	rect, err := prog.Partition(8, Rect)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := plan.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := rect.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.SharedData >= mr.SharedData {
		t.Fatalf("skewed sharing %d not below rect %d", ms.SharedData, mr.SharedData)
	}
}

func TestAbrahamHudakStrategy(t *testing.T) {
	src := `
doall (i, 1, 32)
  doall (j, 1, 32)
    B[i,j] = B[i-1,j] + B[i+1,j] + B[i,j-2] + B[i,j+2]
  enddoall
enddoall`
	prog := MustParse(src, nil)
	plan, err := prog.Partition(16, AbrahamHudak)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := prog.Partition(16, Rect)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedFootprint != ours.PredictedFootprint {
		t.Fatalf("A–H %v vs ours %v", plan, ours)
	}
}

func TestExecuteMatchesSequentialThroughAPI(t *testing.T) {
	prog := MustParse(paperex.MatmulSync, map[string]int64{"N": 6})
	plan, err := prog.Partition(4, Blocks)
	if err != nil {
		t.Fatal(err)
	}
	st, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if st["C"] == nil {
		t.Fatal("store missing C")
	}
}

func TestSimulateMesh(t *testing.T) {
	prog := MustParse(paperex.Example8, map[string]int64{"N": 16})
	plan, err := prog.Partition(8, Rect)
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := plan.SimulateMesh(MeshOptions{Aligned: true})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := plan.SimulateMesh(MeshOptions{Aligned: false})
	if err != nil {
		t.Fatal(err)
	}
	if aligned.LocalMisses <= hashed.LocalMisses {
		t.Fatalf("aligned local %d not above hashed %d", aligned.LocalMisses, hashed.LocalMisses)
	}
	if aligned.Cost >= hashed.Cost {
		t.Fatalf("aligned cost %v not below hashed %v", aligned.Cost, hashed.Cost)
	}
}

func TestSimulateMeshRequiresTilePlan(t *testing.T) {
	prog := MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, CommFree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SimulateMesh(MeshOptions{}); err == nil {
		t.Fatal("slab plan accepted for mesh simulation")
	}
}

func TestParseDatum(t *testing.T) {
	name, idx, err := ParseDatum("B[12,-7,0]")
	if err != nil {
		t.Fatal(err)
	}
	if name != "B" || len(idx) != 3 || idx[0] != 12 || idx[1] != -7 || idx[2] != 0 {
		t.Fatalf("parsed %s %v", name, idx)
	}
	for _, bad := range []string{"B", "B[", "B[]", "B[1,]", "B[x]", ""} {
		if _, _, err := ParseDatum(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	for s, want := range map[Strategy]string{
		Auto: "auto", Rect: "rect", Skewed: "skewed", CommFree: "comm-free",
		Rows: "rows", Columns: "columns", Blocks: "blocks", AbrahamHudak: "abraham-hudak",
		Strategy(99): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	prog := MustParse(paperex.Example2, nil)
	if _, err := prog.Partition(4, Strategy(99)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestPlanStringAndSpace(t *testing.T) {
	prog := MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, Rect)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "rect plan for 100 procs") {
		t.Fatalf("plan string %q", plan.String())
	}
	if prog.Space().Size() != 10000 {
		t.Fatalf("space = %d", prog.Space().Size())
	}
}

func TestLoadImbalance(t *testing.T) {
	prog := MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, Columns)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := plan.LoadImbalance(); err != nil || got != 1.0 {
		t.Fatalf("column strips imbalance = %v, %v", got, err)
	}
	// A skewed comm-free slab plan on Example 8 is imbalanced.
	prog8 := MustParse(paperex.Example8, map[string]int64{"N": 12})
	cf, err := prog8.Partition(8, CommFree)
	if err != nil {
		t.Skip("no comm-free plan at this size")
	}
	if got, err := cf.LoadImbalance(); err != nil || got <= 1.0 {
		t.Fatalf("skewed slabs should be imbalanced, got %v, %v", got, err)
	}
}

func TestSimulateBlockedSmallCache(t *testing.T) {
	src := `
doall (i, 1, 24)
  doall (j, 1, 24)
    A[i,j] = B[i-1,j] + B[i+1,j] + B[i,j-1] + B[i,j+1]
  enddoall
enddoall`
	prog := MustParse(src, nil)
	plan, err := prog.Partition(1, Rect)
	if err != nil {
		t.Fatal(err)
	}
	// Row-scan order = subtile of full rows; blocked = 6×6.
	rowScan, err := plan.SimulateBlocked([]int64{1, 24}, 64)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := plan.SimulateBlocked([]int64{6, 6}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Misses() >= rowScan.Misses() {
		t.Fatalf("blocked %d misses not below row scan %d", blocked.Misses(), rowScan.Misses())
	}
	// On infinite caches ordering cannot matter.
	inf1, err := plan.SimulateBlocked([]int64{1, 24}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inf2, err := plan.SimulateBlocked([]int64{6, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inf1.Misses() != inf2.Misses() {
		t.Fatalf("infinite-cache misses differ: %d vs %d", inf1.Misses(), inf2.Misses())
	}
}

func TestSimulateBlockedErrors(t *testing.T) {
	prog := MustParse(paperex.Example2, nil)
	plan, err := prog.Partition(100, Columns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.SimulateBlocked([]int64{10}, 0); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}

func TestSimulatePublishesMetricsTelemetry(t *testing.T) {
	// Acceptance check for the telemetry subsystem: the counters a
	// simulation publishes must equal the cachesim.Metrics it returns.
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)
	proc := obs.NewTrace("test", "test", reg)
	prevProc := obs.SetProcess(proc)
	defer obs.SetProcess(prevProc)

	prog := MustParse(paperex.Example8, map[string]int64{"N": 24})
	plan, err := prog.Partition(16, Rect)
	if err != nil {
		t.Fatal(err)
	}
	m, err := plan.Simulate(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	prefix := "sim." + plan.Strategy.String() + "."
	for name, want := range map[string]int64{
		"accesses":         m.Accesses,
		"misses":           m.Misses(),
		"cold_misses":      m.ColdMisses,
		"coherence_misses": m.CoherenceMisses,
		"capacity_misses":  m.CapacityMisses,
		"invalidations":    m.Invalidations,
		"network_traffic":  m.NetworkTraffic,
		"shared_data":      m.SharedData,
	} {
		if got := snap.Counters[prefix+name]; got != want {
			t.Errorf("counter %s%s = %d, want %d (the returned Metrics)", prefix, name, got, want)
		}
	}
	if got := snap.Gauges[prefix+"misses_per_proc"]; got != m.MissesPerProc() {
		t.Errorf("misses_per_proc gauge = %v, want %v", got, m.MissesPerProc())
	}
	for p, want := range m.PerProc {
		name := fmt.Sprintf("%sproc.%d.misses", prefix, p)
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	// A simulate span must have been recorded for the strategy, under
	// the process trace and in its latency histogram.
	name := "simulate." + plan.Strategy.String()
	if proc.Root().Snapshot().Find(name) == nil {
		t.Errorf("no %s span recorded", name)
	}
	if got := snap.Histograms[name+".latency"].Count; got != 1 {
		t.Errorf("%s.latency count = %d, want 1", name, got)
	}
}
