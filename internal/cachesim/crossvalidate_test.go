package cachesim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/tile"
)

// Cross-module invariant: on an infinite cache with a single processor,
// the simulator's cold misses equal the exact total footprint of the
// iteration space — Definition 3 measured two independent ways.

func randomAffineProgram(rng *rand.Rand) string {
	nPar := 1 + rng.Intn(2)
	var b strings.Builder
	vars := make([]string, nPar)
	for p := 0; p < nPar; p++ {
		vars[p] = fmt.Sprintf("i%d", p)
		fmt.Fprintf(&b, "doall (%s, 0, %d)\n", vars[p], 2+rng.Intn(6))
	}
	sub := func() string {
		v := vars[rng.Intn(len(vars))]
		c := 1 + rng.Intn(2)
		off := rng.Intn(5) - 2
		s := v
		if c != 1 {
			s = fmt.Sprintf("%d*%s", c, v)
		}
		if off > 0 {
			s += fmt.Sprintf("+%d", off)
		} else if off < 0 {
			s += fmt.Sprintf("%d", off)
		}
		return s
	}
	arrays := []string{"X", "Y"}
	nStmts := 1 + rng.Intn(2)
	for s := 0; s < nStmts; s++ {
		dims := 1 + rng.Intn(2)
		subs := make([]string, dims)
		for k := range subs {
			subs[k] = sub()
		}
		lhs := arrays[rng.Intn(len(arrays))] + "[" + strings.Join(subs, ",") + "]"
		reads := make([]string, 1+rng.Intn(2))
		for k := range reads {
			dims := 1 + rng.Intn(2)
			rsubs := make([]string, dims)
			for d := range rsubs {
				rsubs[d] = sub()
			}
			reads[k] = arrays[rng.Intn(len(arrays))] + "[" + strings.Join(rsubs, ",") + "]"
		}
		fmt.Fprintf(&b, "%s = %s\n", lhs, strings.Join(reads, " + "))
	}
	for p := 0; p < nPar; p++ {
		b.WriteString("enddoall\n")
	}
	return b.String()
}

func TestColdMissesEqualExactFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 120; trial++ {
		src := randomAffineProgram(rng)
		n, err := loopir.Parse(src, nil)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		a, err := footprint.Analyze(n)
		if err != nil {
			// Arrays used with conflicting ranks are rejected by the
			// executor but fine for footprint analysis; only dimension
			// conflicts within a class would error. Skip those programs.
			continue
		}

		// Exact footprint over the whole iteration space.
		var pts [][]int64
		tile.BoundsOf(n).ForEach(func(p []int64) bool {
			pts = append(pts, append([]int64(nil), p...))
			return true
		})
		want, err := a.ExactTotalFootprint(pts)
		if err != nil {
			t.Fatal(err)
		}

		// Simulate on one processor.
		m := mustMachine(t, DefaultConfig(1))
		if err := RunNest(m, n, func([]int64) int { return 0 }); err != nil {
			t.Fatal(err)
		}
		got := m.Finish()
		if got.ColdMisses != want {
			t.Fatalf("trial %d: cold misses %d != exact footprint %d\n%s",
				trial, got.ColdMisses, want, src)
		}
		if got.CoherenceMisses != 0 || got.Invalidations != 0 {
			t.Fatalf("trial %d: single processor produced coherence events", trial)
		}
	}
}

func TestPartitionedColdMissesEqualPerTileFootprints(t *testing.T) {
	// With P processors, cold misses = Σ per-processor footprints
	// (distinct elements each processor touches).
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 60; trial++ {
		src := randomAffineProgram(rng)
		n, err := loopir.Parse(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := footprint.Analyze(n)
		if err != nil {
			continue
		}
		space := tile.BoundsOf(n)
		ext := make([]int64, space.Dim())
		for k, e := range space.Extents() {
			ext[k] = (e + 1) / 2
		}
		tl, err := tile.RectTilingFor(space, ext)
		if err != nil {
			t.Fatal(err)
		}
		procs := 4
		asg, err := tile.Assign(tl, space, procs)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, procPts := range asg.PointsOf() {
			if len(procPts) > 0 {
				n, err := a.ExactTotalFootprint(procPts)
				if err != nil {
					t.Fatal(err)
				}
				want += n
			}
		}
		m := mustMachine(t, DefaultConfig(procs))
		if err := RunNest(m, n, asg.ProcOf); err != nil {
			t.Fatal(err)
		}
		if got := m.Finish().ColdMisses; got != want {
			t.Fatalf("trial %d: cold %d != Σ footprints %d\n%s", trial, got, want, src)
		}
	}
}
