// Command dftgen runs the complete design-for-testability flow for one
// chip-assay combination and prints the augmented architecture, the valve
// sharing scheme, and the full single-source single-meter test set.
//
//	dftgen -chip IVD_chip -assay IVD [-seed N] [-iters N] [-particles N] [-ilp]
//	       [-diagnose] [-reconfigure] [-diagnose-budget N]
//	       [-timeout 30s] [-inject exact:timeout,heuristic:panic] [-json] [-stats]
//	       [-cache-dir DIR] [-cache-mb N]
//	dftgen -fpva 16x16 [-fpva-seed N] [-fpva-ports N] [-fpva-ops N] [...]
//
// -cache-dir enables the persistent content-addressed artifact cache: a
// rerun with identical inputs loads the finalized result from disk and
// skips every solve stage (the synthesized "artifact" stage in -stats
// shows the hit tier). -cache-mb bounds the in-memory tier.
//
// -fpva WxH generates a parametric fully-programmable-valve-array grid
// chip (deterministic in -fpva-seed, perimeter ports per -fpva-ports)
// instead of loading a bundled or file chip, paired with a synthetic
// assay of -fpva-ops operations unless -assay-file overrides it.
//
// The flow degrades gracefully: -timeout (or Ctrl-C / SIGTERM) stops the
// search cooperatively and the best result found so far is still emitted.
// -inject forces deterministic faults in any chain — augmentation tiers
// (exact/heuristic/repair) as well as, with the optional stages enabled,
// the diagnose-*/reconf-* tiers. -stats prints the per-stage runtime
// breakdown of the flow pipeline (schedule → reference → banloop →
// outer → finalize, plus diagnose/reconfigure when enabled); with -json
// the breakdown is embedded in the document as "stage_stats".
//
// -diagnose localizes every modeled fault of the augmented chip by
// adaptive test selection and -reconfigure (implies -diagnose)
// reschedules the assay around each diagnosed suspect set; the results
// print as summary sections and land in the JSON document's
// "diagnosis"/"reconfiguration" blocks.
//
// Exit codes: 0 full success; 1 error; 2 usage; 3 degraded result
// (a fallback tier produced the configuration, the search was
// interrupted, or coverage is partial); 4 cancelled before any result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/dft"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/pso"
	"repro/internal/report"
	"repro/internal/solve"
)

const tool = "dftgen"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		chipName  = flag.String("chip", "IVD_chip", "IVD_chip, RA30_chip or mRNA_chip")
		assayName = flag.String("assay", "IVD", "IVD, PID or CPA")
		chipFile  = flag.String("chip-file", "", "JSON chip spec (overrides -chip)")
		assayFile = flag.String("assay-file", "", "JSON assay spec (overrides -assay)")
		seed      = flag.Int64("seed", 2018, "random seed")
		iters     = flag.Int("iters", 100, "outer PSO iterations")
		particles = flag.Int("particles", 5, "PSO particles per level")
		useILP    = flag.Bool("ilp", false, "use the exact ILP for the reference configuration")
		asJSON    = flag.Bool("json", false, "emit the result as a JSON test program")
		stats     = flag.Bool("stats", false, "report the per-stage runtime breakdown of the flow pipeline")
		injectStr = flag.String("inject", "", "force faults in the augmentation chain, e.g. exact:timeout,heuristic:panic (degradation drills)")
		diagnose  = flag.Bool("diagnose", false, "run adaptive fault diagnosis over the final test set")
		reconf    = flag.Bool("reconfigure", false, "reschedule the assay around every diagnosed suspect set (implies -diagnose)")
		budget    = flag.Int("diagnose-budget", 0, "max vectors the adaptive/greedy diagnosis tiers may apply per fault (0 = unlimited)")
		fpva      = flag.String("fpva", "", "generate a parametric WxH FPVA grid chip (e.g. -fpva 16x16) instead of -chip/-chip-file")
		fpvaSeed  = flag.Int64("fpva-seed", 1, "FPVA generator seed (with -fpva)")
		fpvaPorts = flag.Int("fpva-ports", 0, "FPVA perimeter port count (0 = generator default; with -fpva)")
		fpvaOps   = flag.Int("fpva-ops", 16, "operation count of the synthetic assay paired with -fpva (unless -assay-file is given)")
	)
	rf := cliutil.AddRunFlags()
	flag.Parse()

	inject, err := solve.ParseInjections(*injectStr)
	if err != nil {
		return cliutil.Usagef(tool, "%v", err)
	}
	var c *dft.Chip
	if *fpva != "" {
		var w, h int
		if n, err := fmt.Sscanf(*fpva, "%dx%d", &w, &h); err != nil || n != 2 {
			return cliutil.Usagef(tool, "-fpva wants WxH, e.g. 16x16, got %q", *fpva)
		}
		c, err = dft.GenerateFPVA(dft.FPVAParams{W: w, H: h, Seed: *fpvaSeed, Ports: *fpvaPorts})
		if err != nil {
			return cliutil.Usagef(tool, "%v", err)
		}
	} else {
		c, err = cliutil.LoadChip(*chipName, *chipFile)
		if err != nil {
			return cliutil.Usagef(tool, "%v", err)
		}
	}
	var a *dft.Assay
	if *fpva != "" && *assayFile == "" {
		a = dft.SyntheticAssay(*fpvaOps, *fpvaSeed)
	} else {
		a, err = cliutil.LoadAssay(*assayName, *assayFile)
		if err != nil {
			return cliutil.Usagef(tool, "%v", err)
		}
	}
	if !*asJSON {
		fmt.Println("chip :", c)
		fmt.Println("assay:", a)
	}

	ctx, stop := rf.Context()
	defer stop()

	cache, err := rf.OpenCache()
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	res, err := dft.RunCtx(ctx, c, a, core.Options{
		Outer:          pso.Config{Particles: *particles, Iterations: *iters},
		Inner:          pso.Config{Particles: *particles, Iterations: 8},
		Seed:           *seed,
		UseILP:         *useILP,
		Inject:         inject,
		Workers:        rf.Workers,
		Diagnose:       *diagnose,
		DiagnoseBudget: *budget,
		Reconfigure:    *reconf,
		Cache:          cache,
	})
	if err != nil {
		return cliutil.Fail(tool, err)
	}

	degraded := res.Solve.Degraded || res.Interrupted || !res.CoverageFull

	if *asJSON {
		doc := report.Build(res)
		if *stats {
			sd := report.BuildStats(res.Stats)
			doc.Stats = &sd
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return cliutil.Fail(tool, err)
		}
		if degraded {
			return cliutil.ExitDegraded
		}
		return cliutil.ExitOK
	}

	fmt.Println()
	fmt.Println("== solver ==")
	printSolver(res)

	fmt.Println()
	fmt.Println("== augmented architecture ==")
	fmt.Println(res.Aug.Chip)
	fmt.Printf("added DFT channels (grid edges): %v\n", res.Aug.AddedEdges)
	for i, e := range res.Aug.AddedEdges {
		from, to := res.Aug.Chip.Grid.EdgeEndpoints(e)
		fmt.Printf("  DFT valve v%d on edge %v-%v\n", res.Aug.Chip.NumOriginalValves()+i, from, to)
	}
	fmt.Printf("test ports: source %s, meter %s\n",
		res.Aug.Chip.Ports[res.Aug.Source].Name, res.Aug.Chip.Ports[res.Aug.Meter].Name)

	fmt.Println()
	fmt.Println("== valve sharing ==")
	for i, p := range res.Partners {
		if p < 0 {
			fmt.Printf("  DFT valve v%d gets its own control line (no valid sharing existed)\n",
				res.Aug.Chip.NumOriginalValves()+i)
			continue
		}
		fmt.Printf("  DFT valve v%d shares control line of original valve v%d\n",
			res.Aug.Chip.NumOriginalValves()+i, p)
	}
	if res.NumShared == res.NumDFTValves {
		fmt.Printf("control lines: %d (unchanged — no additional control ports)\n", res.Control.NumLines())
	} else {
		fmt.Printf("control lines: %d (%d extra; full sharing was not achievable)\n",
			res.Control.NumLines(), res.Control.NumLines()-res.Aug.Chip.NumOriginalValves())
	}

	fmt.Println()
	fmt.Println("== test set ==")
	fmt.Printf("%d path vectors (stuck-at-0):\n", len(res.PathVectors))
	for i, v := range res.PathVectors {
		fmt.Printf("  P%d: open valves %v\n", i+1, v.Valves)
	}
	fmt.Printf("%d cut vectors (stuck-at-1):\n", len(res.CutVectors))
	for i, v := range res.CutVectors {
		fmt.Printf("  C%d: close valves %v\n", i+1, v.Valves)
	}
	sim, err := dft.NewSimulator(res.Aug.Chip, res.Control)
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	vectors := append(append([]dft.Vector{}, res.PathVectors...), res.CutVectors...)
	cov := dft.NewEngine(sim, rf.Workers).EvaluateCoverage(vectors, dft.AllFaults(res.Aug.Chip))
	fmt.Printf("fault coverage under sharing: %v\n", cov)

	fmt.Println()
	fmt.Println("== execution time ==")
	fmt.Printf("  original chip          : %5d s\n", res.ExecOriginal)
	fmt.Printf("  DFT, unoptimized share : %5d s\n", res.ExecNoPSO)
	fmt.Printf("  DFT, PSO-optimized     : %5d s\n", res.ExecPSO)
	fmt.Printf("  DFT, independent ctrl  : %5d s\n", res.ExecIndependent)
	fmt.Printf("flow runtime: %v\n", res.Runtime)

	if d := res.Diagnosis; d != nil {
		fmt.Println()
		fmt.Println("== adaptive diagnosis ==")
		fmt.Printf("  %d/%d faults localized, %.1f vectors/fault mean (max %d) vs %d exhaustive\n",
			d.Localized, d.Faults, d.MeanVectors, d.MaxVectors, d.ExhaustiveVectors)
		fmt.Printf("  suspect sets: %.2f mean, %d max; %d degraded diagnoses\n",
			d.MeanSuspects, d.MaxSuspects, d.Degraded)
	}
	if r := res.Reconfiguration; r != nil {
		fmt.Println()
		fmt.Println("== test-around-fault reconfiguration ==")
		fmt.Printf("  %d/%d ban groups feasible (%d infeasible, %d failed, %d relaxed)\n",
			r.Feasible, r.Groups, r.Infeasible, r.Failed, r.Relaxed)
		fmt.Printf("  penalty: %.1f s mean, %d s max over baseline %d s\n",
			r.MeanPenalty, r.MaxPenalty, r.Baseline)
	}

	if *stats {
		fmt.Println()
		fmt.Println("== stage breakdown ==")
		report.WriteStatsTable(os.Stdout, res.Stats)
	}

	if degraded {
		fmt.Println()
		fmt.Println("NOTE: degraded result (see == solver == above); exit status 3")
		return cliutil.ExitDegraded
	}
	return cliutil.ExitOK
}

// printSolver renders the degradation provenance of the flow.
func printSolver(res *dft.Result) {
	fmt.Printf("configuration produced by tier %d (%s)\n", res.Solve.Tier, res.Solve.Name)
	for _, at := range res.Solve.Attempts {
		line := fmt.Sprintf("  tier %d %-9s: %-10s (%s)", at.Tier, at.Name, at.Reason, at.Elapsed.Round(time.Millisecond))
		if at.Injected != "" {
			line += fmt.Sprintf(" [injected: %s]", at.Injected)
		}
		if at.Error != "" {
			line += " — " + at.Error
		}
		fmt.Println(line)
	}
	if res.Interrupted {
		fmt.Println("  search interrupted: result is valid but less optimized")
	}
	if !res.CoverageFull {
		fmt.Printf("  WARNING: partial fault coverage (%d channel(s) untestable)\n", len(res.Aug.Uncovered))
	}
}
