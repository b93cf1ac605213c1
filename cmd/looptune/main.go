// Command looptune runs the autotune pipeline offline: calibrate the
// machine model, race the analytic search's top-K candidate plans through
// measured replay, and print the predicted-vs-measured report. With
// -store, the winner is persisted so a looppartd daemon pointed at the
// same directory serves it without searching.
//
// Usage:
//
//	looptune [flags] <file.loop | example-name | ->
//
// Flags:
//
//	-procs P        number of processors (default 16)
//	-strategy S     rect | skewed (default rect)
//	-k K            tournament size: top-K analytic candidates (default 4)
//	-maxskew M      skew entry bound for -strategy skewed (default 3)
//	-cache-lines N  finite simulated caches of N lines (0 = infinite)
//	-param N=V      bind a loop-bound parameter (repeatable)
//	-calibrate MODE model (paper defaults) | sim (fit by microbenchmark) |
//	                host (wall-clock stride probe; nondeterministic)
//	-exec           also time each candidate on real goroutines
//	-store DIR      persist the winner into a tuned-plan store
//	-json           emit the tournament result as JSON instead of a table
//	-trace FILE     write a Chrome trace-event JSON file
//	-metrics FILE   write a metrics dump (.json = JSON, else text)
//	-pprof ADDR     serve net/http/pprof on ADDR
//
//	looptune -calibrate MODE (no nest argument) prints the fingerprint
//	and exits — the calibration smoke in CI runs exactly this.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"looppart"
	"looppart/internal/autotune"
	"looppart/internal/cliflag"
	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

type paramFlags map[string]int64

func (p paramFlags) String() string { return fmt.Sprint(map[string]int64(p)) }

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	p[name] = v
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "looptune:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("looptune", flag.ContinueOnError)
	procs := fs.Int("procs", 16, "number of processors")
	strategy := fs.String("strategy", "rect", "tournament strategy: rect or skewed")
	k := fs.Int("k", 4, "tournament size: top-K analytic candidates")
	maxSkew := fs.Int64("maxskew", 3, "skew entry bound for -strategy skewed")
	cacheLines := fs.Int("cache-lines", 0, "finite simulated caches of N lines (0 = infinite)")
	calibrate := fs.String("calibrate", "model", "cost constants: model, sim, or host")
	execFlag := fs.Bool("exec", false, "also time each candidate on real goroutines")
	storeDir := fs.String("store", "", "persist the winner into this tuned-plan store")
	asJSON := fs.Bool("json", false, "emit the tournament result as JSON")
	params := paramFlags{"N": 64, "T": 4}
	fs.Var(params, "param", "loop-bound parameter NAME=VALUE (repeatable)")
	var obs cliflag.Obs
	obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, err := obs.Setup("looptune", false)
	if err != nil {
		return err
	}
	defer obs.Close()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	fp, err := fingerprintFor(*calibrate)
	if err != nil {
		return err
	}

	if fs.NArg() == 0 {
		// Calibration-only mode: report the fingerprint and stop.
		fmt.Fprintln(out, fp.String())
		return obs.Flush(reg)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one program file, example name, or - for stdin")
	}
	src, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := looppart.Parse(src, params)
	if err != nil {
		return err
	}

	res, err := autotune.RunTournament(context.Background(), prog.Analysis, autotune.TournamentOptions{
		Procs:       *procs,
		Strategy:    *strategy,
		K:           *k,
		MaxSkew:     *maxSkew,
		Fingerprint: fp,
		CacheLines:  *cacheLines,
		Exec:        *execFlag,
	})
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "calibration: %s\n\n", fp.String())
		fmt.Fprint(out, res.Report())
		if *execFlag {
			fmt.Fprintln(out, "\nwall clock (reported only; selection is by simulated misses):")
			for _, c := range res.Candidates {
				fmt.Fprintf(out, "  rank %d %-20s %d ns\n", c.Rank, c.TileDesc, c.ExecNs)
			}
		}
	}

	if *storeDir != "" {
		// Persist through the Service so the stored bytes are the canonical
		// plan encoding a looppartd daemon warm-starts from and serves.
		store, err := autotune.OpenStore(*storeDir, fp)
		if err != nil {
			return err
		}
		svc := looppart.NewService(looppart.ServiceOptions{
			Store:              store,
			AutotuneK:          *k,
			Fingerprint:        fp,
			AutotuneCacheLines: *cacheLines,
		})
		reg.Collect(svc.Collect)
		resp, err := svc.Plan(context.Background(), looppart.PlanRequest{
			Source:   src,
			Params:   params,
			Procs:    *procs,
			Strategy: *strategy,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nstored tuned plan under %s (%s)\n", resp.Key, fp.ID())
	}
	return obs.Flush(reg)
}

// fingerprintFor maps the -calibrate mode to a fingerprint.
func fingerprintFor(mode string) (autotune.Fingerprint, error) {
	switch mode {
	case "model", "":
		return autotune.ModelFingerprint(), nil
	case "sim":
		return autotune.Calibrate(autotune.CalibrateOptions{})
	case "host":
		return autotune.Calibrate(autotune.CalibrateOptions{Host: true})
	default:
		return autotune.Fingerprint{}, fmt.Errorf("unknown -calibrate mode %q (want model, sim, or host)", mode)
	}
}

func loadProgram(arg string) (string, error) {
	if arg == "-" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	if src, ok := paperex.All[strings.ToLower(arg)]; ok {
		return src, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		names := make([]string, 0, len(paperex.All))
		for n := range paperex.All {
			names = append(names, n)
		}
		return "", fmt.Errorf("%v (or use a built-in example: %s)", err, strings.Join(names, ", "))
	}
	return string(data), nil
}
