// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the reconstructed benchmarks:
//
//	experiments -table1   Table 1  (DFT augmentation results)
//	experiments -fig7     Figure 7 (exec time: original vs DFT w/ independent control)
//	experiments -fig8     Figure 8 (test vector counts: original vs DFT)
//	experiments -fig9     Figure 9 (PSO convergence traces)
//	experiments -all      everything
//
// Flags -iters, -particles, -seed control the PSO; the defaults match the
// paper (5 particles per level, 100 iterations). -ilp enables the exact
// ILP for the reference DFT configuration. -out FILE tees the report to a
// file as well as stdout — the archived copy in docs/experiments_output.txt
// is regenerated with:
//
//	go run ./cmd/experiments -all -out docs/experiments_output.txt
//
// -stats prints each flow's per-stage runtime breakdown to stderr (kept
// off stdout so -out archives stay free of run-to-run timing noise).
//
// -cache-dir enables the persistent artifact cache: on a warm rerun with
// identical PSO/solver parameters every flow result loads from disk and
// the whole report regenerates in milliseconds, bit-identical to a cold
// run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/dft"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/pso"
	"repro/internal/report"
	"repro/internal/testgen"
)

// out receives every report line; -out tees it to a file as well.
var out io.Writer = os.Stdout

// flowCtx bounds every flow run; flowFor marks degradedAny when a run
// came back interrupted or from a fallback tier.
var (
	flowCtx     = context.Background()
	degradedAny = false
	showStats   = false
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "reproduce Table 1")
		fig7      = flag.Bool("fig7", false, "reproduce Figure 7")
		fig8      = flag.Bool("fig8", false, "reproduce Figure 8")
		fig9      = flag.Bool("fig9", false, "reproduce Figure 9")
		controlF  = flag.Bool("control", false, "control-layer overhead analysis (extension)")
		all       = flag.Bool("all", false, "reproduce everything")
		iters     = flag.Int("iters", 100, "PSO iterations (outer level)")
		particles = flag.Int("particles", 5, "PSO particles per level")
		seed      = flag.Int64("seed", 2018, "random seed")
		useILP    = flag.Bool("ilp", false, "solve the exact augmentation ILP for the reference configuration")
		outFile   = flag.String("out", "", "tee the report to FILE as well as stdout (regenerates docs/experiments_output.txt)")
		stats     = flag.Bool("stats", false, "print each flow's per-stage runtime breakdown to stderr")
	)
	rf := cliutil.AddRunFlags()
	flag.Parse()
	if !*table1 && !*fig7 && !*fig8 && !*fig9 && !*controlF && !*all {
		flag.Usage()
		os.Exit(cliutil.ExitUsage)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			os.Exit(cliutil.Usagef("experiments", "%v", err))
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}
	showStats = *stats
	artCache, err := rf.OpenCache()
	if err != nil {
		os.Exit(cliutil.Fail("experiments", err))
	}
	opts := core.Options{
		Outer:   pso.Config{Particles: *particles, Iterations: *iters},
		Inner:   pso.Config{Particles: *particles, Iterations: 8},
		Seed:    *seed,
		UseILP:  *useILP,
		Workers: rf.Workers,
		Cache:   artCache,
	}

	ctx, stop := rf.Context()
	defer stop()
	flowCtx = ctx

	if *table1 || *all {
		runTable1(opts)
	}
	if *fig7 || *all {
		runFig7(opts)
	}
	if *fig8 || *all {
		runFig8(opts)
	}
	if *fig9 || *all {
		runFig9(opts)
	}
	if *controlF || *all {
		runControl(opts)
	}
	if degradedAny {
		fmt.Fprintln(os.Stderr, "experiments: some runs were degraded or interrupted; exit status 3")
		os.Exit(cliutil.ExitDegraded)
	}
}

// runControl is an extension beyond the paper: synthesize the physical
// control layer under the flow's sharing scheme and under independent
// control, quantifying the "no additional control ports" claim.
func runControl(opts core.Options) {
	fmt.Fprintln(out, "=== Control-layer overhead (extension): sharing vs independent ===")
	fmt.Fprintf(out, "%-12s %26s %30s\n", "chip", "shared (ports/len/skew)", "independent (ports/len/skew)")
	for _, cn := range chipNames {
		r := flowFor(cn, assayNames[0], opts)
		sharedStats, indepStats, err := dft.CompareControlOverhead(r.Aug.Chip, r.Control, dft.ControlParams{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: control on %s: %v\n", cn, err)
			os.Exit(cliutil.ExitError)
		}
		fmt.Fprintf(out, "%-12s %10d /%5d /%4d %14d /%5d /%4d\n", cn,
			sharedStats.Ports, sharedStats.TotalLength, sharedStats.MaxSkew,
			indepStats.Ports, indepStats.TotalLength, indepStats.MaxSkew)
	}
	fmt.Fprintln(out, "(sharing keeps the control port count at the original valve count)")
	fmt.Fprintln(out)
}

// traceValue renders a convergence-trace entry: values in the invalid
// penalty region mean the swarm has not yet found a valid sharing scheme
// (the paper's "quality ∞").
func traceValue(v float64) string {
	if v >= 1e8 {
		return "   (∞ — no valid sharing yet)"
	}
	return fmt.Sprintf("%6.0f s", v)
}

// results caches flow runs across sections when -all is used.
var cache = map[string]*dft.Result{}

func flowFor(chipName, assayName string, opts core.Options) *dft.Result {
	key := chipName + "/" + assayName
	if r, ok := cache[key]; ok {
		return r
	}
	c, _ := dft.ChipByName(chipName)
	a, _ := dft.AssayByName(assayName)
	res, err := dft.RunCtx(flowCtx, c, a, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s on %s: %v\n", assayName, chipName, err)
		os.Exit(cliutil.ExitCode(err))
	}
	if res.Solve.Degraded || res.Interrupted || !res.CoverageFull {
		degradedAny = true
		fmt.Fprintf(os.Stderr, "experiments: %s/%s degraded (tier %q, interrupted=%v, full coverage=%v)\n",
			chipName, assayName, res.Solve.Name, res.Interrupted, res.CoverageFull)
	}
	if showStats {
		fmt.Fprintf(os.Stderr, "-- stage breakdown %s/%s --\n", chipName, assayName)
		report.WriteStatsTable(os.Stderr, res.Stats)
	}
	cache[key] = res
	return res
}

var chipNames = []string{"IVD_chip", "RA30_chip", "mRNA_chip"}
var assayNames = []string{"IVD", "PID", "CPA"}

func runTable1(opts core.Options) {
	fmt.Fprintln(out, "=== Table 1: Results of DFT Augmentation ===")
	fmt.Fprintln(out, "per chip x assay, row 1: #DFT valves / #shared valves / runtime (s)")
	fmt.Fprintln(out, "               row 2: exec time (s): original / DFT w/o PSO / DFT + PSO")
	fmt.Fprintf(out, "%-12s", "")
	for _, a := range assayNames {
		fmt.Fprintf(out, " | %-22s", a)
	}
	fmt.Fprintln(out)
	for _, cn := range chipNames {
		row1 := fmt.Sprintf("%-12s", cn)
		row2 := fmt.Sprintf("%-12s", "")
		for _, an := range assayNames {
			r := flowFor(cn, an, opts)
			row1 += fmt.Sprintf(" | %3d %3d %14s", r.NumDFTValves, r.NumShared, r.Runtime.Round(time.Millisecond))
			row2 += fmt.Sprintf(" | %6d %6d %6d ", r.ExecOriginal, r.ExecNoPSO, r.ExecPSO)
		}
		fmt.Fprintln(out, row1)
		fmt.Fprintln(out, row2)
	}
	fmt.Fprintln(out)
}

func runFig7(opts core.Options) {
	fmt.Fprintln(out, "=== Figure 7: Execution time, original chips vs DFT architectures")
	fmt.Fprintln(out, "=== without valve sharing (independent control lines) ===")
	fmt.Fprintf(out, "%-22s %10s %14s\n", "combination", "original", "DFT+indep")
	for _, cn := range chipNames {
		for _, an := range assayNames {
			r := flowFor(cn, an, opts)
			fmt.Fprintf(out, "%-22s %10d %14d\n", cn+"/"+an, r.ExecOriginal, r.ExecIndependent)
		}
	}
	fmt.Fprintln(out)
}

func runFig8(opts core.Options) {
	fmt.Fprintln(out, "=== Figure 8: Number of test vectors, original chips vs DFT ===")
	fmt.Fprintf(out, "%-12s %28s %24s %12s\n", "chip", "original (multi-instrument)", "DFT (single src/meter)", "DFT test time")
	for _, cn := range chipNames {
		c, _ := dft.ChipByName(cn)
		bp, bc, err := dft.BaselineVectors(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: baseline on %s: %v\n", cn, err)
			os.Exit(cliutil.ExitError)
		}
		// DFT vector count is a property of the chip (use the IVD-assay
		// flow's architecture).
		r := flowFor(cn, assayNames[0], opts)
		vectors := append(append([]dft.Vector{}, r.PathVectors...), r.CutVectors...)
		testTime := testgen.EstimateTestTime(vectors, testgen.TestTimeParams{})
		fmt.Fprintf(out, "%-12s %20d (%dp+%dc) %16d (%dp+%dc) %10ds\n", cn,
			len(bp)+len(bc), len(bp), len(bc),
			r.NumTestVectors, len(r.PathVectors), len(r.CutVectors), testTime)
	}
	fmt.Fprintln(out, "(test time estimated at 2s actuation + 3s measurement per vector —")
	fmt.Fprintln(out, " the paper's affordability argument: well under a minute per chip)")
	fmt.Fprintln(out)
}

func runFig9(opts core.Options) {
	fmt.Fprintln(out, "=== Figure 9: Execution time during PSO iterations ===")
	combos := [][2]string{{"IVD_chip", "IVD"}, {"RA30_chip", "PID"}, {"mRNA_chip", "CPA"}}
	for _, combo := range combos {
		r := flowFor(combo[0], combo[1], opts)
		fmt.Fprintf(out, "%s/%s:\n", combo[0], combo[1])
		step := len(r.Trace) / 20
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(r.Trace); i += step {
			fmt.Fprintf(out, "  iter %3d: %s\n", i, traceValue(r.Trace[i]))
		}
		fmt.Fprintf(out, "  final   : %s\n", traceValue(r.Trace[len(r.Trace)-1]))
	}
	fmt.Fprintln(out)
}
