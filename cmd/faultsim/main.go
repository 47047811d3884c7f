// Command faultsim runs a fault-simulation campaign: it generates the
// single-source single-meter test set for a (DFT-augmented) benchmark chip
// and fault-simulates every stuck-at-0/1 defect against every vector,
// printing the detection matrix and the final coverage.
//
//	faultsim -chip RA30_chip [-matrix] [-baseline] [-leakage] [-diagnose] [-reconfigure]
//	         [-assay PID] [-budget 8] [-min-coverage 0.95] [-timeout 30s] [-workers 4] [-stats]
//	         [-cache-dir DIR]
//
// -cache-dir enables the persistent artifact cache: the augmentation and
// cut cover (one content-addressed test-set artifact, keyed by chip and
// -optimal) load from disk on a warm rerun instead of re-solving — the
// exact ILP cover in particular. The campaign itself always runs.
//
// The campaign asks each usable vector only the faults it can reveal, in
// one serial walk; -workers sizes the worker pool of the diagnosis and
// reconfiguration stages (default: all CPU cores). Output is
// bit-identical for any worker count. -stats prints a per-stage breakdown of the run
// (testset → campaign and any optional stage below) with the counters the
// flow's stages report for the same engines, including the simulator's
// state-memo hit rate. -leakage appends a quantitative leakage stage: the
// cut vectors rerun through the sparse pressure engine to report which
// closed-valve leaks a threshold meter actually registers.
//
// -diagnose appends an adaptive fault-diagnosis stage: every modeled
// fault is localized by greedily applying the test vector with maximal
// expected information gain (best split of the surviving candidate set),
// through the diagnose-adaptive → diagnose-greedy → diagnose-replay
// chain; -budget caps the vectors the adaptive/greedy tiers may apply
// per fault (0 = unlimited). -reconfigure (implies -diagnose) then
// reschedules the -assay around every diagnosed suspect set with the
// suspect valves banned, reporting the execution-time penalty per
// distinct ban group or a typed infeasibility.
//
// -min-coverage sets a coverage floor in [0,1]: when the single-source
// single-meter campaign detects a smaller fraction of the modeled
// faults, the run exits with the degraded code (3) instead of 0, so CI
// and scripts can gate on test quality without parsing output.
//
// Exit codes: 0 success; 1 error; 2 usage; 3 coverage below the
// -min-coverage floor; 4 cancelled (Ctrl-C, SIGTERM or -timeout expired
// before the campaign finished).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/dft"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/report"
	"repro/internal/sched"
)

const tool = "faultsim"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		chipName = flag.String("chip", "IVD_chip", "IVD_chip, RA30_chip or mRNA_chip")
		matrix   = flag.Bool("matrix", false, "print the fault x vector detection matrix")
		baseline = flag.Bool("baseline", false, "also run the multi-instrument baseline on the original chip")
		optimal  = flag.Bool("optimal", false, "use the exact minimum cut-set cover (ILP) instead of the greedy one")
		stats    = flag.Bool("stats", false, "report the per-stage breakdown of the campaign (incl. state-memo hit rate)")
		leakage  = flag.Bool("leakage", false, "quantify membrane-leakage detectability of the cut vectors on the sparse pressure engine")
		diag     = flag.Bool("diagnose", false, "adaptively localize every fault with information-gain test selection")
		reconf   = flag.Bool("reconfigure", false, "reschedule the assay around every diagnosed suspect set (implies -diagnose)")
		assay    = flag.String("assay", "IVD", "assay to reconfigure around located faults (IVD, PID or CPA)")
		budget   = flag.Int("budget", 0, "max vectors the adaptive/greedy diagnosis tiers may apply per fault (0 = unlimited)")
		minCov   = flag.Float64("min-coverage", 0, "exit with code 3 when coverage falls below this fraction in [0,1]")
	)
	rf := cliutil.AddRunFlags()
	flag.Parse()
	if *minCov < 0 || *minCov > 1 {
		return cliutil.Usagef(tool, "-min-coverage %v outside [0,1]", *minCov)
	}
	if *reconf {
		*diag = true
	}
	c, err := cliutil.LoadChip(*chipName, "")
	if err != nil {
		return cliutil.Usagef(tool, "%v", err)
	}
	var asy *dft.Assay
	if *reconf {
		if asy, err = cliutil.LoadAssay(*assay, ""); err != nil {
			return cliutil.Usagef(tool, "%v", err)
		}
	}
	fmt.Println("chip:", c)

	ctx, stop := rf.Context()
	defer stop()

	cache, err := rf.OpenCache()
	if err != nil {
		return cliutil.Fail(tool, err)
	}

	// The campaign runs as an instrumented two-stage pipeline so -stats
	// can attribute wall-clock and state-memo traffic per phase.
	metrics := fault.NewMetrics()
	var (
		aug       *dft.Augmentation
		cuts      []dft.Vector
		vectors   []dft.Vector
		sim       *fault.Simulator
		faults    []dft.Fault
		cov       dft.Coverage
		leakRep   *dft.LeakageReport
		diagSum   *core.DiagnosisSummary
		reconfSum *core.ReconfigSummary
	)
	// countFault attributes the simulator's traffic since base to a stage
	// with the flow's own counting code.
	countFault := func(st *flowstage.StageStats, base fault.MetricsSnapshot) {
		core.CountFault(st, nil, metrics.Snapshot().Sub(base))
	}
	pipe := &flowstage.Pipeline{Stages: []flowstage.Stage{
		{Name: "testset", Run: func(ctx context.Context, st *flowstage.StageStats) error {
			ts, err := dft.BuildTestSetCtx(ctx, c, *optimal, cache)
			if err != nil {
				return err
			}
			aug, cuts = ts.Aug, ts.Cuts
			if cache != nil {
				if ts.Tier != "" {
					st.Count("art_"+ts.Tier+"_hits", 1)
				} else {
					st.Count("art_miss", 1)
				}
			}
			st.Count("dft_valves", int64(aug.Chip.NumDFTValves()))
			st.Count("cut_vectors", int64(len(cuts)))
			return nil
		}},
		{Name: "campaign", Run: func(ctx context.Context, st *flowstage.StageStats) error {
			defer countFault(st, metrics.Snapshot())
			vectors = append(aug.PathVectors(), cuts...)
			var err error
			sim, err = dft.NewSimulator(aug.Chip, nil)
			if err != nil {
				return err
			}
			sim.SetMetrics(metrics)
			faults = dft.AllFaults(aug.Chip)
			cov, err = dft.NewEngine(sim, rf.Workers).EvaluateCoverageCtx(ctx, vectors, faults)
			if err != nil {
				return err
			}
			st.Count("vectors", int64(len(vectors)))
			st.Count("faults", int64(len(faults)))
			return nil
		}},
	}}
	if *leakage {
		pipe.Stages = append(pipe.Stages, flowstage.Stage{
			Name: "leakage",
			Run: func(ctx context.Context, st *flowstage.StageStats) error {
				defer countFault(st, metrics.Snapshot())
				var err error
				leakRep, err = dft.QuantifyLeakage(ctx, sim, cuts, dft.LeakageOptions{})
				if err != nil {
					return err
				}
				core.CountLeakage(st, leakRep)
				return nil
			},
		})
	}
	if *diag {
		pipe.Stages = append(pipe.Stages, flowstage.Stage{
			Name: "diagnose",
			Run: func(ctx context.Context, st *flowstage.StageStats) error {
				defer countFault(st, metrics.Snapshot())
				dm, err := dft.NewEngine(sim, rf.Workers).DetectionMatrix(ctx, vectors, faults)
				if err != nil {
					return err
				}
				planner := &diagnose.Planner{Matrix: dm, VectorBudget: *budget}
				diags, err := planner.Campaign(ctx, rf.Workers)
				if err != nil {
					return err
				}
				diagSum = core.SummarizeDiagnosis(diags, dm.NumUsable())
				diagSum.Count(st)
				return nil
			},
		})
	}
	if *reconf {
		pipe.Stages = append(pipe.Stages, flowstage.Stage{
			Name: "reconfigure",
			Run: func(ctx context.Context, st *flowstage.StageStats) error {
				sets := diagSum.SuspectSets()
				sm := sched.NewMetrics()
				r := &diagnose.Reconfigurer{
					Chip:    aug.Chip,
					Ctrl:    dft.IndependentControl(aug.Chip),
					Assay:   asy,
					Metrics: sm,
				}
				groups, err := r.Campaign(ctx, sets, rf.Workers)
				if err != nil {
					return err
				}
				reconfSum = core.SummarizeReconfig(sets, groups)
				reconfSum.Count(st)
				core.CountSched(st, sm.Snapshot())
				return nil
			},
		})
	}
	pstats, err := pipe.Run(ctx)
	if err != nil {
		if *stats {
			report.WriteStatsTable(os.Stderr, pstats)
		}
		return cliutil.Fail(tool, err)
	}

	fmt.Printf("augmented: +%d DFT valves, %d vectors (%d paths, %d cuts), %d faults\n",
		aug.Chip.NumDFTValves(), len(vectors), aug.NumPaths(), len(cuts), len(faults))

	if *matrix {
		fmt.Printf("\n%-18s", "fault \\ vector")
		for i := range vectors {
			fmt.Printf("%3d", i)
		}
		fmt.Println()
		for _, f := range faults {
			fmt.Printf("%-18s", f)
			for _, v := range vectors {
				mark := " ."
				if sim.Detects(v, f) {
					mark = " X"
				}
				fmt.Printf("%3s", mark)
			}
			fmt.Println()
		}
	}

	fmt.Printf("\nsingle-source single-meter coverage: %v\n", cov)
	for _, f := range cov.Undetected {
		fmt.Printf("  UNDETECTED: %v\n", f)
	}

	if leakRep != nil {
		fmt.Printf("\nquantitative leakage (meter threshold, sparse engine): %v\n", leakRep)
		fmt.Printf("  pressure solves: %d (%d warm, %d cold)\n",
			leakRep.Solves.Solves, leakRep.Solves.Warm, leakRep.Solves.Cold)
		for _, v := range leakRep.Undetectable {
			fmt.Printf("  LEAK UNDETECTABLE: v%d\n", v)
		}
	}

	if ds := diagSum; ds != nil {
		fmt.Printf("\nadaptive diagnosis: %d/%d faults localized, %.1f vectors/fault mean (max %d) vs %d exhaustive, %.2f suspects/fault mean (max %d), %d degraded\n",
			ds.Localized, ds.Faults, ds.MeanVectors, ds.MaxVectors,
			ds.ExhaustiveVectors, ds.MeanSuspects, ds.MaxSuspects, ds.Degraded)
	}

	if rs := reconfSum; rs != nil {
		for _, g := range rs.Entries {
			if g.Err == nil && g.Reconfig != nil {
				continue
			}
			if errors.Is(g.Err, diagnose.ErrInfeasible) {
				fmt.Printf("  INFEASIBLE: ban closed %v open %v\n", g.BanClosed, g.BanOpen)
			} else {
				fmt.Printf("  FAILED: ban closed %v open %v: %v\n", g.BanClosed, g.BanOpen, g.Err)
			}
		}
		fmt.Printf("\ntest-around-fault reconfiguration (%s): %d/%d ban groups feasible (%d infeasible, %d failed), penalty mean %.1f s / max %d s over baseline %d s\n",
			asy.Name, rs.Feasible, rs.Groups, rs.Infeasible, rs.Failed, rs.MeanPenalty, rs.MaxPenalty, rs.Baseline)
	}

	if *baseline {
		bp, bc, err := dft.BaselineVectors(c)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		bsim, err := dft.NewSimulator(c, nil)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		bcov, err := dft.NewEngine(bsim, rf.Workers).EvaluateCoverageCtx(ctx, append(append([]dft.Vector{}, bp...), bc...), dft.AllFaults(c))
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		maxInstr := 0
		for _, v := range bp {
			if n := len(v.Sources) + len(v.Meters); n > maxInstr {
				maxInstr = n
			}
		}
		fmt.Printf("\nbaseline (original chip, multi-instrument): %d vectors, up to %d instruments, %v\n",
			len(bp)+len(bc), maxInstr, bcov)
		fmt.Printf("DFT platform needs exactly 2 instruments (1 source + 1 meter) vs the baseline's %d ports wired\n",
			len(c.Ports))
	}

	if *stats {
		fmt.Println()
		fmt.Println("== stage breakdown ==")
		report.WriteStatsTable(os.Stdout, pstats)
	}
	if cov.Ratio() < *minCov {
		fmt.Fprintf(os.Stderr, "%s: coverage %.3f below -min-coverage %.3f\n", tool, cov.Ratio(), *minCov)
		return cliutil.ExitDegraded
	}
	return cliutil.ExitOK
}
