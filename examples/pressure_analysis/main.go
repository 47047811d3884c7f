// Pressure analysis: the quantitative refinement of the test model. The
// boolean fault simulator asks "does pressure arrive at the meter?"; this
// example solves the actual resistive network to show HOW MUCH arrives —
// why long detour paths give weaker signals, and why leakage defects
// (which the paper mentions but does not evaluate) need a sensitive meter.
//
// All solves go through the sparse pressure engine: the rig's system is
// analysed and factorized once, each batch is solved in order on one
// solver, and near-identical states (the leaky variants) are answered
// with low-rank warm updates instead of refactorizations — the engine
// stats at the end show the split.
//
//	go run ./examples/pressure_analysis
package main

import (
	"context"
	"fmt"
	"log"

	"repro/dft"
	"repro/internal/pressure"
)

func main() {
	c := dft.ChipIVD()
	fmt.Println("chip:", c)

	aug, err := dft.Augment(c, false)
	if err != nil {
		log.Fatal(err)
	}
	src := aug.Chip.Ports[aug.Source].Node
	mtr := aug.Chip.Ports[aug.Meter].Node
	fmt.Printf("test rig: source %s, meter %s\n\n",
		aug.Chip.Ports[aug.Source].Name, aug.Chip.Ports[aug.Meter].Name)

	// One engine per rig: symbolic analysis and the fill-reducing
	// elimination order happen here, once; every batch below reuses them.
	eng, err := pressure.NewEngine(aug.Chip, src, mtr, pressure.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Signal strength of each test path: longer paths = higher pneumatic
	// resistance = weaker meter flow. The whole set goes through the
	// batch API in one call.
	paths := aug.PathVectors()
	vectors := make([][]float64, len(paths))
	for i, vec := range paths {
		open := make([]bool, aug.Chip.NumValves())
		for _, v := range vec.Valves {
			open[v] = true
		}
		vectors[i] = pressure.Conductances(aug.Chip, open, pressure.Params{}, nil)
	}
	flows, err := eng.EvaluateAll(context.Background(), vectors)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("path vector signal strengths (flow at meter, source at 1.0):")
	for i, f := range flows {
		fmt.Printf("  P%d: %2d valves open, meter flow %.4f\n", i+1, len(paths[i].Valves), f)
	}

	// Leakage: close everything on a cut, then make each cut valve leaky
	// in turn and compare what a coarse vs a sensitive meter sees. Each
	// variant differs from the fault-free state in a single conductance,
	// so the engine answers it with a rank-1 warm update.
	cuts, err := dft.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
	if err != nil {
		log.Fatal(err)
	}
	cut := cuts[0]
	intendedOpen := make([]bool, aug.Chip.NumValves())
	for v := range intendedOpen {
		intendedOpen[v] = true
	}
	for _, v := range cut.Valves {
		intendedOpen[v] = false
	}
	batch := [][]float64{pressure.Conductances(aug.Chip, intendedOpen, pressure.Params{}, nil)}
	for _, v := range cut.Valves {
		batch = append(batch, pressure.Conductances(aug.Chip, intendedOpen, pressure.Params{},
			map[int]pressure.Defect{v: pressure.Leaky}))
	}
	flows, err = eng.EvaluateAll(context.Background(), batch)
	if err != nil {
		log.Fatal(err)
	}
	const coarse, fine = 0.05, 0.0005
	fmt.Printf("\ncut vector C1 closes valves %v (fault-free meter flow %.6f):\n",
		cut.Valves, flows[0])
	for i, v := range cut.Valves {
		f := flows[i+1]
		fmt.Printf("  leak at v%-3d meter flow %.6f  coarse meter (>%.4f): %-5v fine meter (>%.4f): %v\n",
			v, f, coarse, f > coarse, fine, f > fine)
	}

	st := eng.Stats()
	fmt.Printf("\nengine: %d solves, %d cold factorizations, %d warm low-rank updates (total rank %d)\n",
		st.Solves, st.Cold, st.Warm, st.RankUpdates)
}
