// Command chipinfo prints the netlist and an ASCII rendering of a
// benchmark chip's connection grid.
//
//	chipinfo -chip IVD_chip [-dft] [-timeout 10s] [-workers 4]
//	         [-cache-dir DIR]
//
// With -dft the chip is first augmented for single-source single-meter
// testability; added channels render as == and :, and the test set's
// fault coverage is verified on the -workers-sized parallel engine.
// -cache-dir enables the persistent artifact cache: a rerun loads the
// augmentation and cut cover from disk instead of re-solving.
//
// Exit codes: 0 success; 1 error; 2 usage; 4 cancelled (Ctrl-C, SIGTERM
// or -timeout expired during augmentation).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/dft"
	"repro/internal/cliutil"
	"repro/internal/render"
)

const tool = "chipinfo"

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("chip", "IVD_chip", "IVD_chip, RA30_chip or mRNA_chip")
	showDFT := flag.Bool("dft", false, "augment for DFT before rendering")
	rf := cliutil.AddRunFlags()
	flag.Parse()
	c, err := cliutil.LoadChip(*name, "")
	if err != nil {
		return cliutil.Usagef(tool, "%v", err)
	}
	var ts *dft.TestSet
	if *showDFT {
		ctx, stop := rf.Context()
		defer stop()
		cache, err := rf.OpenCache()
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		ts, err = dft.BuildTestSetCtx(ctx, c, false, cache)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		c = ts.Aug.Chip
		fmt.Printf("augmented for test between %s and %s\n",
			c.Ports[ts.Aug.Source].Name, c.Ports[ts.Aug.Meter].Name)
		if ts.Tier != "" {
			fmt.Printf("(test set served from %s artifact cache)\n", ts.Tier)
		}
	}
	fmt.Println(c)
	fmt.Println()
	fmt.Println(render.Chip(c))
	fmt.Println(render.Legend())
	fmt.Println()

	fmt.Println("devices:")
	for _, d := range c.Devices {
		fmt.Printf("  %-4s %-9s at %v\n", d.Name, d.Kind, c.Grid.CoordOf(d.Node))
	}
	fmt.Println("ports:")
	for _, p := range c.Ports {
		fmt.Printf("  %-4s at %v\n", p.Name, c.Grid.CoordOf(p.Node))
	}
	fmt.Printf("valves: %d on channel edges (%d DFT)\n", c.NumValves(), c.NumDFTValves())
	a, b := c.MaxDistantPortPair()
	fmt.Printf("farthest port pair (test source/meter): %s and %s\n", c.Ports[a].Name, c.Ports[b].Name)

	if ts != nil {
		sim, err := dft.NewSimulator(c, nil)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		vectors := append(ts.Aug.PathVectors(), ts.Cuts...)
		cov := dft.NewEngine(sim, rf.Workers).EvaluateCoverage(vectors, dft.AllFaults(c))
		fmt.Printf("test set: %d vectors (%d paths, %d cuts), %v\n",
			len(vectors), ts.Aug.NumPaths(), len(ts.Cuts), cov)
	}
	return cliutil.ExitOK
}
