package exec

// Concurrency tests intended to run under the race detector (CI runs
// `go test -race ./...`; see scripts/verify.sh): a doall epoch whose every
// iteration issues atomic accumulates into a small shared array, so many
// goroutines hammer the same striped locks at once. Sizes scale down under
// `go test -short` to keep the -race run quick.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"looppart/internal/loopir"
	"looppart/internal/obs"
	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

// raceSize picks the problem size: modest by default (the race detector
// multiplies runtime ~10×), smaller still with -short.
func raceSize(t *testing.T) (n int64, procs int) {
	t.Helper()
	if testing.Short() {
		return 8, 4
	}
	return 16, 8
}

func TestRunParallelAtomicAccumulatesRace(t *testing.T) {
	n, procs := raceSize(t)
	nest, err := loopir.Parse(paperex.MatmulSync, map[string]int64{"N": n})
	if err != nil {
		t.Fatal(err)
	}
	st := setupStore(t, nest)
	want := setupStore(t, nest)
	RunSequential(nest, want)

	assign := assignFor(t, nest, []int64{n / 2, n / 2, n}, procs)
	if err := RunParallel(nest, st, procs, assign); err != nil {
		t.Fatal(err)
	}
	if !st["C"].EqualWithin(want["C"], 1e-6) {
		t.Errorf("parallel atomic accumulates diverge from sequential execution")
	}
}

func TestAtomicAddConcurrentSameElement(t *testing.T) {
	// Every goroutine accumulates into the same element: the worst case
	// for the striped locks and the easiest race to detect.
	a, err := NewArray("C", []int64{0, 0}, []int64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	adds := 2000
	if testing.Short() {
		adds = 200
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				a.AtomicAdd([]int64{1, 2}, 1)
				a.AtomicUpdate([]int64{2, 1}, func(old float64) float64 { return old + 2 })
			}
		}()
	}
	wg.Wait()
	if got, want := a.At([]int64{1, 2}), float64(workers*adds); got != want {
		t.Errorf("AtomicAdd total = %v, want %v", got, want)
	}
	if got, want := a.At([]int64{2, 1}), float64(2*workers*adds); got != want {
		t.Errorf("AtomicUpdate total = %v, want %v", got, want)
	}
}

func TestStripeCount(t *testing.T) {
	for _, size := range []int64{1, 2, 7, 8, 64, 1000, 1 << 20} {
		n := stripeCount(size)
		if n < 1 || n > 1024 {
			t.Errorf("stripeCount(%d) = %d, out of [1,1024]", size, n)
		}
		if int64(n) > size {
			t.Errorf("stripeCount(%d) = %d stripes for fewer elements", size, n)
		}
		if n&(n-1) != 0 {
			t.Errorf("stripeCount(%d) = %d, not a power of two", size, n)
		}
	}
	// Large arrays get at least the GOMAXPROCS-scaled pool (the old
	// hard-coded 64 under-striped big machines).
	want := 4 * runtime.GOMAXPROCS(0)
	if want > 1024 {
		want = 1024
	}
	if n := stripeCount(1 << 20); n < want && n < 1024 {
		t.Errorf("stripeCount(1<<20) = %d, want ≥ min(4*GOMAXPROCS, 1024) = %d", n, want)
	}
}

func TestAtomicContentionCounters(t *testing.T) {
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	a, err := NewArray("C", []int64{0}, []int64{0}) // one element → one stripe
	if err != nil {
		t.Fatal(err)
	}
	const workers, adds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				a.AtomicUpdate([]int64{0}, func(old float64) float64 {
					time.Sleep(time.Microsecond) // hold the stripe to force contention
					return old + 1
				})
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap.Counters["exec.atomic.acquisitions"]; got != workers*adds {
		t.Errorf("acquisitions = %d, want %d", got, workers*adds)
	}
	if snap.Counters["exec.atomic.contended"] == 0 {
		t.Errorf("no contended acquisitions counted despite serialized updates")
	}
	if got := snap.Gauges["exec.array.C.stripes"]; got != 1 {
		t.Errorf("stripes gauge = %v, want 1", got)
	}

	// With telemetry off, arrays carry no counters and pay no TryLock.
	telemetry.SetActive(nil)
	b, err := NewArray("D", []int64{0}, []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	if b.acquisitions != nil || b.contended != nil {
		t.Errorf("telemetry-off array still carries counters")
	}
}

func TestRunParallelTelemetryMetrics(t *testing.T) {
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)
	proc := obs.NewTrace("test", "test", reg)
	prevProc := obs.SetProcess(proc)
	defer obs.SetProcess(prevProc)

	// A doseq-wrapped doall whose body writes only its own A element and
	// reads only B: race-free, so the telemetry counters are the only
	// shared state the race detector can complain about.
	const src = `
doseq (t, 1, T)
  doall (i, 1, N)
    doall (j, 1, N)
      A[i,j] = B[i,j] + B[i+1,j+3]
    enddoall
  enddoall
enddoseq
`
	nest, err := loopir.Parse(src, map[string]int64{"N": 8, "T": 2})
	if err != nil {
		t.Fatal(err)
	}
	st := setupStore(t, nest)
	const procs = 4
	assign := assignFor(t, nest, []int64{2, 8}, procs)
	if err := RunParallel(nest, st, procs, assign); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["exec.epochs"]; got != 2 {
		t.Errorf("epochs = %d, want 2 (T=2 doseq)", got)
	}
	// 8×8 doall space, re-dispatched each of the 2 epochs: the iteration
	// split itself is counted once (it is reused across epochs).
	if got := snap.Counters["exec.iterations"]; got != 64 {
		t.Errorf("iterations = %d, want 64", got)
	}
	for p := 0; p < procs; p++ {
		name := fmt.Sprintf("exec.proc.%d.iterations", p)
		if snap.Counters[name] != 16 {
			t.Errorf("%s = %d, want 16", name, snap.Counters[name])
		}
	}
	if got := snap.Gauges["exec.load_imbalance"]; got != 1 {
		t.Errorf("load imbalance = %v, want 1.0 for the even split", got)
	}
	if h := snap.Histograms["exec.barrier_wait_ns"]; h.Count != 2*procs {
		t.Errorf("barrier wait observations = %d, want %d", h.Count, 2*procs)
	}
	if h := snap.Histograms["exec.tile_wall_ns"]; h.Count != 2*procs {
		t.Errorf("tile wall observations = %d, want %d", h.Count, 2*procs)
	}
	// Executor spans land in the process trace: each epoch with one
	// tile per processor beneath it, the tile tagged with its processor.
	var tiles, epochs int
	seen := map[int]bool{}
	proc.Root().Snapshot().Walk(func(sp *obs.SpanSnapshot) {
		switch sp.Name {
		case "exec.tile":
			tiles++
			p, _ := sp.Attrs["proc"].(int)
			seen[p] = true
		case "exec.epoch":
			epochs++
			if len(sp.Children) != procs {
				t.Errorf("epoch has %d tile spans, want %d", len(sp.Children), procs)
			}
		}
	})
	if tiles != 2*procs || epochs != 2 || len(seen) != procs {
		t.Errorf("spans: tiles=%d epochs=%d procs=%d, want %d, 2, %d", tiles, epochs, len(seen), 2*procs, procs)
	}
	if h := snap.Histograms["exec.tile.latency"]; h.Count != 2*procs {
		t.Errorf("exec.tile.latency count = %d, want %d", h.Count, 2*procs)
	}
}
