// Command planbench is the repository's benchmark: it serves seeded plan
// requests through a freshly built looppartd, certifies seeded plans in
// process, checks every output, and prints one JSON result line.
//
//	planbench -workload hit_repeat|cold_plan|certify -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// replays the workload's requests in process, timing each layer from
// outside, and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The default seed, and the held-out seed for confirming a claimed gain
// on inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 20231
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	daemon   string // looppartd binary
	dir      string // scratch directory for daemon logs and span files
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result: the JSON line plus the failure listing.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string // failed ops and failed output checks, one per line
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.fail("metric %s is not a finite number", name)
		v = 0
	}
	o.Metrics[name] = metric{v, unit}
}

// fail records a failed output check (failed ops are counted separately).
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "hit_repeat, cold_plan or certify")
	seed := flag.Int64("seed", defaultSeed, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	daemonBin := flag.String("daemon", ".bench_build/looppartd", "looppartd binary")
	dir := flag.String("dir", ".bench_build", "scratch directory for logs and spans")
	flag.Parse()

	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, daemon: *daemonBin}
	cfg.dir = filepath.Join(*dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, *trace))
	var (
		out *outcome
		err error
	)
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1")
	case *trace == 1:
		out, err = traced(cfg)
	case cfg.workload == "hit_repeat" || cfg.workload == "cold_plan":
		// The clients only wait on their connections; one thread for
		// them leaves the daemon both cores.
		runtime.GOMAXPROCS(1)
		if cfg.workload == "hit_repeat" {
			out, err = hitRepeat(cfg)
		} else {
			out, err = coldPlan(cfg)
		}
	case cfg.workload == "certify":
		out, err = certify(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want hit_repeat, cold_plan or certify)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(2)
	}
	report(out)
	if !out.Correct {
		os.Exit(1)
	}
}

// report prints the metrics and failures for people, then the JSON line.
func report(o *outcome) {
	o.Correct = o.Failed == 0 && len(o.failures) == 0
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %14.6g %s\n", name, o.Metrics[name].Value, o.Metrics[name].Unit)
	}
	share := 0.0
	if o.Attempted > 0 {
		share = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Printf("failed_share %.6g (%d of %d ops failed; %d failures in all, output checks included)\n",
		share, o.Failed, o.Attempted, len(o.failures))
	// Each distinct failure once, in order, with how often it happened.
	count := map[string]int{}
	var order []string
	for _, f := range o.failures {
		if count[f]++; count[f] == 1 {
			order = append(order, f)
		}
	}
	for _, f := range order {
		fmt.Printf("FAILED (%d×): %s\n", count[f], f)
	}
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // finite floats, strings and ints always marshal
	}
	fmt.Println(string(b))
}
