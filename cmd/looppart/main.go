// Command looppart analyzes a loop-nest program and reports its reference
// classes, footprint model, and recommended partition.
//
// Usage:
//
//	looppart [flags] <file.loop | example-name>
//
// The argument is a path to a loop-language source file, or the name of a
// built-in paper example (example2, example3, example6, example8,
// example9, example10, matmulsync, fig9stencil, ...).
//
// Flags:
//
//	-procs P        number of processors (default 16)
//	-strategy S     auto | rect | skewed | comm-free | rows | columns |
//	                blocks | abraham-hudak | lowerbound | oblivious
//	                (default auto)
//	-param N=V      bind a loop-bound parameter (repeatable)
//	-gen            also emit Go source for the tile kernel
//	-explain        print the decision trace (why the chosen shape won)
//	-trace FILE     write a Chrome trace-event JSON file
//	-metrics FILE   write a metrics dump (.json = JSON, else text)
//	-pprof ADDR     serve net/http/pprof on ADDR (e.g. :6060)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"looppart"
	"looppart/internal/cliflag"
	"looppart/internal/codegen"
	"looppart/internal/layout"
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

var strategies = map[string]looppart.Strategy{
	"auto":          looppart.Auto,
	"rect":          looppart.Rect,
	"skewed":        looppart.Skewed,
	"comm-free":     looppart.CommFree,
	"rows":          looppart.Rows,
	"columns":       looppart.Columns,
	"blocks":        looppart.Blocks,
	"abraham-hudak": looppart.AbrahamHudak,
	"lowerbound":    looppart.LowerBound,
	"oblivious":     looppart.Oblivious,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "looppart:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("looppart", flag.ContinueOnError)
	procs := fs.Int("procs", 16, "number of processors")
	strategyName := fs.String("strategy", "auto", "partitioning strategy")
	gen := fs.Bool("gen", false, "emit Go source for the tile kernel")
	explain := fs.Bool("explain", false, "print the decision trace (why the chosen shape won)")
	var obs cliflag.Obs
	obs.Register(fs)
	params := paramFlags{"N": 64, "T": 4}
	fs.Var(params, "param", "loop-bound parameter NAME=VALUE (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected one program file, example name, or - for stdin; try: looppart -procs 100 example2")
	}
	src, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	strategy, ok := strategies[*strategyName]
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strategyName)
	}

	// -explain prints the decision events the process trace records, so
	// it installs one even without -trace.
	reg, err := obs.Setup("looppart", *explain)
	if err != nil {
		return err
	}
	defer obs.Close()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	prog, err := looppart.Parse(src, params)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "=== program ===")
	fmt.Fprint(out, prog.Nest.String())
	fmt.Fprintln(out, "\n=== analysis ===")
	report, err := prog.Report()
	if err != nil {
		return err
	}
	fmt.Fprint(out, report.String())

	plan, err := prog.Partition(*procs, strategy)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n=== partition ===")
	fmt.Fprintln(out, plan)
	// The plan's exact communication certificate, one line. Skipped
	// quietly when the analysis cannot run (e.g. scan budget exceeded on
	// a huge space) — the plan itself is unaffected.
	if sum, err := plan.CommSummary(context.Background()); err == nil {
		fmt.Fprintf(out, "comm: %d words/epoch (max sent %d, mean %.1f, method %s)\n",
			sum.Words, sum.MaxSent, sum.MeanSent, sum.Method)
	}

	if reg != nil || *explain {
		// Simulate under the chosen plan so the trace and metrics dump
		// carry the miss counters the model predicted.
		m, err := plan.Simulate(looppart.SimOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\n=== simulation ===")
		fmt.Fprintln(out, m)
	}
	if *explain {
		fmt.Fprintln(out, "\n=== decision trace ===")
		fmt.Fprint(out, obs.Events().FormatDecisionTrace())
	}
	if err := obs.Flush(reg); err != nil {
		return err
	}

	if *gen {
		if plan.Tile == nil {
			return fmt.Errorf("-gen requires a tile-shaped plan (strategy rect/skewed/blocks/...)")
		}
		layouts, err := layoutsFor(prog)
		if err != nil {
			return err
		}
		var p codegen.Program
		if plan.Tile.IsRect() {
			p, err = codegen.Generate(prog.Nest, layouts, codegen.Options{})
		} else {
			p, err = codegen.GenerateSkewed(prog.Nest, *plan.Tile, prog.Space(), layouts, codegen.Options{})
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\n=== generated kernel ===")
		fmt.Fprint(out, p.Source)
	}
	return nil
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

func layoutsFor(prog *looppart.Program) (map[string]codegen.ArrayLayout, error) {
	// Exact per-array bounds from the subscript interval analysis, so
	// the emitted kernel's folded offsets stay in range for every
	// iteration of the nest.
	mm, err := layout.MapNest(prog.Nest, 1)
	if err != nil {
		return nil, err
	}
	layouts := map[string]codegen.ArrayLayout{}
	for name, l := range mm.Arrays {
		size := make([]int64, len(l.Lo))
		for k := range size {
			size[k] = l.Hi[k] - l.Lo[k] + 1
		}
		layouts[name] = codegen.ArrayLayout{Name: name, Lo: l.Lo, Size: size}
	}
	return layouts, nil
}
