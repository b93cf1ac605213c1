package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Gauge("g").Set(2)
	r.Histogram("h").Observe(time.Millisecond)
	r.Latency("phase").Observe(time.Millisecond)
	r.Collect(func(Snapshot) { t.Error("collector ran on a nil registry") })
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestActiveSwap(t *testing.T) {
	if Active() != nil {
		t.Fatalf("telemetry unexpectedly enabled at test start")
	}
	reg := New()
	prev := SetActive(reg)
	if prev != nil {
		t.Errorf("previous active registry = %v, want nil", prev)
	}
	if Active() != reg {
		t.Errorf("Active() did not return the installed registry")
	}
	SetActive(nil)
	if Active() != nil {
		t.Errorf("telemetry still enabled after SetActive(nil)")
	}
}

func TestCountersGaugesHistogramsConcurrent(t *testing.T) {
	reg := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("hits").Add(1)
				reg.Gauge("last").Set(float64(i))
				reg.Histogram("lat").Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	h := reg.Histogram("lat").Summary()
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	if h.MinNs != 0 || h.MaxNs != perWorker-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", h.MinNs, h.MaxNs, perWorker-1)
	}
}

func TestSnapshotDelta(t *testing.T) {
	reg := New()
	reg.Counter("sim.cold").Add(10)
	reg.Gauge("imbalance").Set(1.5)
	reg.Histogram("wait").Observe(10 * time.Nanosecond)
	before := reg.Snapshot()
	reg.Counter("sim.cold").Add(7)
	reg.Counter("sim.new").Add(3)
	reg.Gauge("imbalance").Set(2.5)
	reg.Histogram("wait").Observe(20 * time.Nanosecond)
	d := reg.Snapshot().Delta(before)
	if d.Counters["sim.cold"] != 7 || d.Counters["sim.new"] != 3 {
		t.Errorf("counter deltas = %v", d.Counters)
	}
	if _, ok := d.Counters["unchanged"]; ok {
		t.Errorf("zero-delta counter retained")
	}
	if d.Gauges["imbalance"] != 2.5 {
		t.Errorf("gauge delta = %v, want last value 2.5", d.Gauges["imbalance"])
	}
	if h := d.Histograms["wait"]; h.Count != 1 || h.SumNs != 20 {
		t.Errorf("histogram delta = %+v", h)
	}
}

func TestMetricsExports(t *testing.T) {
	reg := New()
	reg.Counter("sim.rect.cold_misses").Add(104)
	reg.Gauge("exec.load_imbalance").Set(1.25)
	reg.Histogram("exec.barrier_wait_ns").Observe(time.Microsecond)

	var jbuf bytes.Buffer
	if err := reg.WriteMetricsJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(jbuf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON does not round-trip: %v", err)
	}
	if snap.Counters["sim.rect.cold_misses"] != 104 {
		t.Errorf("counter in JSON dump = %d, want 104", snap.Counters["sim.rect.cold_misses"])
	}
	if snap.Gauges["exec.load_imbalance"] != 1.25 {
		t.Errorf("gauge in JSON dump = %v", snap.Gauges["exec.load_imbalance"])
	}

	var tbuf bytes.Buffer
	if err := reg.WriteMetricsText(&tbuf); err != nil {
		t.Fatal(err)
	}
	text := tbuf.String()
	for _, want := range []string{
		"sim_rect_cold_misses_total 104",
		"exec_load_imbalance 1.25",
		"exec_barrier_wait_ns_count 1",
		"# TYPE sim_rect_cold_misses_total counter",
		"# HELP sim_rect_cold_misses_total Cumulative count of sim.rect.cold_misses.",
		"# TYPE exec_load_imbalance gauge",
		"# TYPE exec_barrier_wait_ns summary",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
	// Counters print under their _total name only: a bare-name alias
	// would repeat the family and break the exposition format.
	if strings.Contains(text, "\nsim_rect_cold_misses ") {
		t.Errorf("text dump still carries the bare counter name:\n%s", text)
	}
}

func TestCollectReadsComponentCounters(t *testing.T) {
	reg := New()
	var served int64
	reg.Collect(func(s Snapshot) {
		s.Counters["component.served"] = served
		s.Gauges["component.ratio"] = 0.5
	})
	served = 3
	snap := reg.Snapshot()
	if snap.Counters["component.served"] != 3 || snap.Gauges["component.ratio"] != 0.5 {
		t.Errorf("collected values = %v %v", snap.Counters, snap.Gauges)
	}
	served = 5
	if got := reg.Snapshot().Counters["component.served"]; got != 5 {
		t.Errorf("second snapshot read %d, want the live value 5", got)
	}
}

func TestLatencyHistogramPerSpanName(t *testing.T) {
	reg := New()
	h := reg.Latency("search.rect")
	h.Observe(time.Microsecond)
	if reg.Latency("search.rect") != h {
		t.Error("Latency returned a different histogram for the same span name")
	}
	if got := reg.Snapshot().Histograms["search.rect.latency"]; got.Count != 1 {
		t.Errorf("search.rect.latency = %+v, want one observation", got)
	}
	allocs := testing.AllocsPerRun(100, func() { reg.Latency("search.rect").Observe(time.Microsecond) })
	if allocs != 0 {
		t.Errorf("recording a known span allocates %v times, want 0", allocs)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sim.rect.cold_misses": "sim_rect_cold_misses",
		"exec.proc[3].iters":   "exec_proc_3__iters",
		"9lives":               "_9lives",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStartPprof(t *testing.T) {
	addr, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status = %d", resp.StatusCode)
	}
}
