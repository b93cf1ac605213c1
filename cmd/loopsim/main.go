// Command loopsim simulates a loop-nest program on the cache-coherent
// multiprocessor model under several partitioning strategies and prints a
// comparison table of misses, coherence events, and network traffic.
//
// Usage:
//
//	loopsim [flags] <file.loop | example-name>
//
// Flags:
//
//	-procs P       number of processors (default 16)
//	-param N=V     bind a loop-bound parameter (repeatable)
//	-cache LINES   finite cache size in lines; 0 = infinite (default 0)
//	-mesh          also run the distributed-memory mesh comparison
//	                (aligned vs hashed data placement)
//	-commsets      print each strategy's exact per-tile send/receive
//	               table and run the plan under the message-passing
//	               executor (measured words must equal the prediction;
//	               a mismatch is an error)
//	-trace FILE    write a Chrome trace-event JSON file
//	-metrics FILE  write a metrics dump (.json = JSON, else text)
//	-pprof ADDR    serve net/http/pprof on ADDR (e.g. :6060)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"looppart"
	"looppart/internal/cliflag"
	"looppart/internal/commsets"
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
		fmt.Fprintln(os.Stderr, "loopsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loopsim", flag.ContinueOnError)
	procs := fs.Int("procs", 16, "number of processors")
	cache := fs.Int("cache", 0, "cache lines per processor (0 = infinite)")
	mesh := fs.Bool("mesh", false, "run the mesh placement comparison")
	commsetsFlag := fs.Bool("commsets", false, "print per-tile communication sets and run the message-passing executor")
	var obs cliflag.Obs
	obs.Register(fs)
	params := paramFlags{"N": 64, "T": 4}
	fs.Var(params, "param", "loop-bound parameter NAME=VALUE (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one program file, example name, or - for stdin")
	}
	reg, err := obs.Setup("loopsim", false)
	if err != nil {
		return err
	}
	defer obs.Close()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)
	var src string
	if arg := fs.Arg(0); arg == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		src = string(data)
	} else if builtin, ok := paperex.All[strings.ToLower(arg)]; ok {
		src = builtin
	} else {
		data, err := os.ReadFile(arg)
		if err != nil {
			return err
		}
		src = string(data)
	}
	prog, err := looppart.Parse(src, params)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\ttile\tmisses/proc\tcold\tcoherence\tinval\ttraffic\tshared\timbalance\tcost")
	for _, s := range []looppart.Strategy{
		looppart.Rows, looppart.Columns, looppart.Blocks,
		looppart.Rect, looppart.Skewed, looppart.CommFree,
	} {
		plan, err := prog.Partition(*procs, s)
		if err != nil {
			fmt.Fprintf(w, "%s\t—\t%v\n", s, err)
			continue
		}
		m, err := plan.Simulate(looppart.SimOptions{CacheLines: *cache})
		if err != nil {
			return err
		}
		imbalance, err := plan.LoadImbalance()
		if err != nil {
			return err
		}
		shape := "slabs"
		if plan.Tile != nil {
			shape = plan.Tile.String()
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.0f\n",
			s, shape, m.MissesPerProc(), m.ColdMisses, m.CoherenceMisses,
			m.Invalidations, m.NetworkTraffic, m.SharedData, imbalance, m.Cost)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *commsetsFlag {
		for _, s := range []looppart.Strategy{looppart.Rect, looppart.CommFree} {
			plan, err := prog.Partition(*procs, s)
			if err != nil {
				continue
			}
			comm, err := plan.CommSetsCtx(context.Background(), commsets.Options{Materialize: true})
			if err != nil {
				fmt.Fprintf(out, "\ncommunication sets (%s): %v\n", s, err)
				continue
			}
			fmt.Fprintf(out, "\ncommunication sets (%s plan):\n%s", s, comm.Table())
			rep, err := plan.ExecuteMessagePassing()
			if err != nil {
				return fmt.Errorf("message-passing run (%s): %w", s, err)
			}
			line := fmt.Sprintf("msgexec: %d epochs, predicted %d words, moved %d",
				rep.Epochs, rep.PredictedWords, rep.WordsMoved)
			if rep.ValuesChecked {
				line += ", values match sequential"
			}
			fmt.Fprintln(out, line)
		}
	}

	if *mesh {
		plan, err := prog.Partition(*procs, looppart.Rect)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nmesh placement comparison (rect plan):")
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "placement\tlocal misses\tremote misses\thop traffic\tcost")
		for _, aligned := range []bool{true, false} {
			m, err := plan.SimulateMesh(looppart.MeshOptions{Aligned: aligned, CacheLines: *cache})
			if err != nil {
				return err
			}
			name := "hashed"
			if aligned {
				name = "aligned"
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.0f\n",
				name, m.LocalMisses, m.RemoteMisses, m.HopTraffic, m.Cost)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return obs.Flush(reg)
}
