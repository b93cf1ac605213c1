// Quickstart: analyze and partition the paper's Example 2, then check the
// prediction on the simulator.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"looppart"
)

func main() {
	// The paper's Example 2 (§3.1): 100×100 iterations; two references
	// to B whose footprints overlap along the (1,1) lattice direction.
	src := `
doall (i, 101, 200)
  doall (j, 1, 100)
    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
  enddoall
enddoall`

	prog, err := looppart.Parse(src, nil)
	if err != nil {
		log.Fatal(err)
	}

	// The analysis: reference classes, spreads, and closed-form ratios.
	report, err := prog.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	// Partition for 100 processors. Auto discovers that column strips
	// (partition a of the paper's Figure 3) are communication-free.
	plan, err := prog.Partition(100, looppart.Auto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nchosen plan:", plan)

	// Validate on the simulator: the paper's numbers are 104 B-misses
	// per tile for column strips vs 140 for 10×10 blocks.
	for _, s := range []looppart.Strategy{looppart.Columns, looppart.Blocks} {
		p, err := prog.Partition(100, s)
		if err != nil {
			log.Fatal(err)
		}
		m, err := p.Simulate(looppart.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s misses/proc=%.0f (A:100 + B:%0.f)  shared=%d  coherence=%d\n",
			s, m.MissesPerProc(), m.MissesPerProc()-100, m.SharedData, m.CoherenceMisses)
	}
}
