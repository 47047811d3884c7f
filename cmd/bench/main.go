// Command bench measures one layer of the DFT flow per mode and writes
// the result as a JSON report:
//
//	bench [-mode NAME] [-out FILE] [-baseline FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// The modes are listed in the modes table below and by -help; each has
// its own file. Every mode writes the same schema (harness.go): a Doc
// naming the mode and GOMAXPROCS, holding one Record per measured leg
// with its timing, its speedup over the mode's reference variant,
// leg-specific counters and the correctness gates the mode checks. Any
// false gate exits 1. -baseline FILE also holds every gated speedup to at
// least half of its value in a committed report of the same mode. The
// committed BENCH_<mode>.json files are regenerated with:
//
//	go run ./cmd/bench -mode NAME -out BENCH_NAME.json
//
// Exit codes: 0 success; 1 error or failed gate; 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/cliutil"
	"repro/internal/fault"
)

const tool = "bench"

// combos pairs each bundled chip with its paper assay.
var combos = []struct {
	chip  func() *chip.Chip
	assay func() *assay.Graph
}{{chip.IVD, assay.IVD}, {chip.RA30, assay.PID}, {chip.MRNA, assay.CPA}}

// modes is the table -mode selects from.
var modes = []struct {
	name, help string
	run        func() ([]Record, error)
}{
	{"fault", "cold fault-simulation campaign on mRNA on the memoized engine", runFault},
	{"ilp", "serial warm-started branch-and-bound ILP engine on the paper's test-path and test-cut models", runILP},
	{"pressure", "node-pressure solvers (sparse cold vs warm) on a leakage sweep per design", runPressure},
	{"diagnose", "adaptive fault diagnosis vs exhaustive replay per design", runDiagnose},
	{"pso", "two-level PSO fitness engine at 1/2/4/8 workers per chip/assay combo", runPSO},
	{"sched", "warm-start scheduler engine (cold vs warm) per chip/assay combo", runSched},
	{"fpva", "per-valve vs line-first suite generation on FPVA grids 8x8..64x64", runFPVA},
	{"cache", "artifact cache (uncached vs cold and disk-hit flows) per design", runCache},
}

func main() {
	os.Exit(run())
}

func run() int {
	var names []string
	help := "`NAME` of the benchmark to run:"
	for _, m := range modes {
		names = append(names, m.name)
		help += fmt.Sprintf("\n  %-9s %s", m.name, m.help)
	}
	modeName := flag.String("mode", "fault", help)
	outFile := flag.String("out", "", "write the JSON report to `FILE` (default: stdout)")
	baselineFile := flag.String("baseline", "", "fail when a gated speedup falls below half of its value in the committed report `FILE`")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to `FILE`")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC) to `FILE` after the run")
	flag.Parse()
	i := 0
	for i < len(modes) && modes[i].name != *modeName {
		i++
	}
	if i == len(modes) {
		return cliutil.Usagef(tool, "unknown -mode %q (want one of %s)", *modeName, strings.Join(names, ", "))
	}
	m := modes[i]

	stopProfile, err := cliutil.StartCPUProfile(*cpuProfile)
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	recs, err := func() ([]Record, error) {
		defer stopProfile()
		return m.run()
	}()
	if err := cliutil.WriteHeapProfile(*memProfile); err != nil {
		return cliutil.Fail(tool, err)
	}
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	doc := Doc{Mode: m.name, GoMaxProcs: runtime.GOMAXPROCS(0), Records: recs}
	if err := report(os.Stderr, doc, *outFile, *baselineFile); err != nil {
		return cliutil.Fail(tool, err)
	}
	return cliutil.ExitOK
}

// runFault times a cold campaign — a fresh simulator per op — on the
// largest bundled design. A campaign is serial, so the one leg has no
// worker count.
func runFault() ([]Record, error) {
	c := chip.MRNA()
	vectors := fault.BenchCampaignVectors(c)
	faults := fault.AllFaults(c)
	r, err := measure(c.Name, "memoized", func() error {
		sim, err := fault.NewSimulator(c, chip.IndependentControl(c))
		if err != nil {
			return err
		}
		sim.EvaluateCoverage(vectors, faults)
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Counters = map[string]float64{"vectors": float64(len(vectors)), "faults": float64(len(faults))}
	return []Record{r}, nil
}
