// Command paperbench regenerates every experiment of the reproduction —
// the paper's worked examples, figures, and comparative claims — and
// prints the measured-vs-paper table recorded in EXPERIMENTS.md.
//
// Usage:
//
//	paperbench [flags] [-id EID]
//
// With -id, only the named experiment (e.g. E8) runs; an unknown id lists
// the known experiments and exits non-zero. `-id -` reads a whitespace-
// separated list of experiment ids from stdin, so a selection pipes in:
//
//	echo E1 E8 E21 | paperbench -id -
//
// Flags:
//
//	-id EID        run only this experiment (- = read ids from stdin)
//	-trace FILE    write a Chrome trace-event JSON file of the run
//	-metrics FILE  write a metrics dump (.json = JSON, else text)
//	-pprof ADDR    serve net/http/pprof on ADDR (e.g. :6060)
//
// With -trace or -metrics, each experiment also prints its per-experiment
// telemetry snapshot size (counters recorded while it ran).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"looppart/internal/cliflag"
	"looppart/internal/experiments"
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
	}
	os.Exit(code)
}

func run(args []string, in io.Reader, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	id := fs.String("id", "", "run only this experiment (E1..E21), or - to read ids from stdin")
	var obs cliflag.Obs
	obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	reg, err := obs.Setup("paperbench")
	if err != nil {
		return 2, err
	}
	defer obs.Close()

	var ids []string
	switch {
	case *id == "-":
		data, err := io.ReadAll(in)
		if err != nil {
			return 2, err
		}
		ids = strings.Fields(string(data))
		if len(ids) == 0 {
			return 2, fmt.Errorf("-id -: no experiment ids on stdin")
		}
	case *id != "":
		ids = []string{*id}
	}
	results, err := experiments.RunAll(ids, reg)
	if err != nil {
		// Unknown experiment id: the error lists the known IDs.
		return 2, err
	}
	fmt.Fprint(out, experiments.FormatTable(results))
	if reg != nil {
		for _, r := range results {
			if r.Telemetry != nil {
				fmt.Fprintf(out, "%s telemetry: %d counters, %d gauges, %d histograms\n",
					r.ID, len(r.Telemetry.Counters), len(r.Telemetry.Gauges), len(r.Telemetry.Histograms))
			}
		}
	}
	if err := obs.Flush(reg); err != nil {
		return 1, err
	}
	for _, r := range results {
		if !r.Pass {
			return 1, nil
		}
	}
	return 0, nil
}
