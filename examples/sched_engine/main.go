// Scheduler engine: the warm-start pattern behind the PSO fitness
// function. The two-level search evaluates thousands of valve-sharing
// schemes on ONE augmented chip; rebuilding the scheduler's routing state
// (adjacency, candidate routes, storage doorsteps, priorities) for every
// scheme would dominate the search. This example builds the engine once,
// sweeps sharing schemes through it, checks every schedule bit for bit
// against a cold run (a fresh engine per call), and times the sweep both
// ways: a fresh engine per call, and the single warm engine — the fitness
// loop's actual access pattern.
//
//	go run ./examples/sched_engine
package main

import (
	"fmt"
	"log"
	"reflect"
	"time"

	"repro/dft"
)

func main() {
	c := dft.ChipRA30()
	a := dft.AssayPID()
	fmt.Println("chip:", c)
	fmt.Printf("assay: %s (%d ops)\n\n", a.Name, a.NumOps())

	// Augment the chip so there are DFT valves to share; this is the chip
	// the fitness scheduler actually sees during the search.
	aug, err := dft.Augment(c, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("augmented: +%d DFT valves on %d added edges\n\n",
		aug.Chip.NumDFTValves(), len(aug.AddedEdges))

	// Build once: everything that does not depend on the control
	// assignment — routing graph, candidate routes, storage doorsteps,
	// critical-path priorities — is computed here.
	eng, err := dft.NewSchedEngine(aug.Chip, a, dft.SchedParams{})
	if err != nil {
		log.Fatal(err)
	}

	// Sweep sharing schemes (DFT valve i rides original valve
	// partners[i]'s line). Pairing onto lines 4 or 5 forces transports
	// that wanted to overlap to serialize — the +12 s schemes below —
	// exactly the landscape the PSO navigates.
	schemes := [][]int{
		nil, // independent control
		{0, 7},
		{1, 8},
		{2, 9},
		{0, 4},
		{13, 5},
		{4, 5},
	}

	ctrls := make([]*dft.Control, len(schemes))
	for i, partners := range schemes {
		label := "independent"
		if partners != nil {
			ctrls[i], err = dft.SharedControl(aug.Chip, partners)
			if err != nil {
				log.Fatal(err)
			}
			label = fmt.Sprintf("partners%v", partners)
		}

		sch, warmErr := eng.Run(ctrls[i], dft.SchedParams{})
		ref, refErr := dft.ScheduleAssay(aug.Chip, ctrls[i], a, dft.SchedParams{})
		switch {
		case warmErr != nil && refErr != nil:
			fmt.Printf("%-24s unschedulable: %v\n", label, warmErr)
		case warmErr != nil || refErr != nil:
			log.Fatalf("%s: warm and cold engines disagree: %v vs %v", label, warmErr, refErr)
		case !reflect.DeepEqual(sch, ref):
			log.Fatalf("%s: warm and cold schedules differ — they must be bit-identical", label)
		default:
			fmt.Printf("%-24s %4d s, %2d transports\n", label, sch.ExecutionTime, len(sch.Transports))
		}
	}

	// Time the sweep both ways a caller could run it. The PSO's inner swarm
	// revisits schemes across iterations, so a few rounds is the realistic
	// shape.
	const rounds = 20
	legs := []struct {
		name string
		run  func(ctrl *dft.Control)
	}{
		{"cold engine per call", func(ctrl *dft.Control) { dft.ScheduleAssay(aug.Chip, ctrl, a, dft.SchedParams{}) }},
		{"one warm engine", func(ctrl *dft.Control) { eng.Run(ctrl, dft.SchedParams{}) }},
	}
	fmt.Printf("\n%d schemes x %d rounds:\n", len(schemes), rounds)
	for _, leg := range legs {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, ctrl := range ctrls {
				leg.run(ctrl)
			}
		}
		fmt.Printf("  %-24s %v\n", leg.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Println("same schedules both ways — only the amortization differs")
}
