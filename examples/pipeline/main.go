// Pipeline walks one program through every stage of the Figure 10
// compiler: parse → reference analysis → loop partitioning → data
// partitioning/alignment (mesh) → code generation → simulation → parallel
// execution, printing each stage's artifact.
//
// Run:
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"looppart"
	"looppart/internal/codegen"
)

func main() {
	// A nest beyond Abraham–Hudak's domain: coupled subscripts on C.
	src := `
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3]
  enddoall
enddoall`

	fmt.Println("── stage 1: parse ──")
	prog, err := looppart.Parse(src, map[string]int64{"N": 48})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(prog.Nest.String())

	fmt.Println("\n── stage 2: reference analysis ──")
	report, err := prog.Report()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	fmt.Println("\n── stage 3: loop partitioning (P=16) ──")
	plan, err := prog.Partition(16, looppart.Rect)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)

	fmt.Println("\n── stage 4: data partitioning & alignment on the mesh ──")
	for _, aligned := range []bool{false, true} {
		m, err := plan.SimulateMesh(looppart.MeshOptions{Aligned: aligned})
		if err != nil {
			log.Fatal(err)
		}
		name := "hashed "
		if aligned {
			name = "aligned"
		}
		fmt.Printf("  %s: local %d, remote %d, hops %d\n",
			name, m.LocalMisses, m.RemoteMisses, m.HopTraffic)
	}

	fmt.Println("\n── stage 5: code generation ──")
	layouts := map[string]codegen.ArrayLayout{
		"A": {Name: "A", Lo: []int64{0, 0}, Size: []int64{64, 64}},
		"B": {Name: "B", Lo: []int64{-4, -4}, Size: []int64{64, 64}},
		"C": {Name: "C", Lo: []int64{0, 0}, Size: []int64{128, 64}},
	}
	kern, err := codegen.Generate(prog.Nest, layouts, codegen.Options{FuncName: "Example9Tile"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(kern.Source)

	fmt.Println("\n── stage 6: simulate (uniform memory) ──")
	m, err := plan.Simulate(looppart.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %v\n", m)

	fmt.Println("\n── stage 7: execute on goroutines ──")
	if _, err := plan.Execute(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  ok")
}
