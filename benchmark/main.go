// Command benchmark measures cold runs of the DFT flow end to end and
// attributes their time to the flow's layers. Each pass of a workload
// runs in a fresh child process (this binary, re-executed), ops run one
// after another through core.RunDFTFlowCtx, core.RunSuiteCtx and
// core.NewCache, and every op is checked against a golden fixture and
// independent checks. See README.md for workloads, metrics and bounds.
//
//	bash benchmark/run.sh                                   # every workload, fixed pass counts
//	bash benchmark/run.sh --workload flow_cpa --seconds 25  # one workload, time-bounded
//	bash benchmark/run.sh --trace 1                         # traced: per-layer metrics
//	bash benchmark/run.sh --quick --trace 1                 # tiny ops, two passes each
//	bash benchmark/run.sh --compare A.json B.json
//	bash benchmark/run.sh --update-golden
//
// A single-workload run prints its result as the last line of standard
// output: {"correct", "attempted", "failed", "metrics"}. It prints one
// even when passes failed; a metric no pass measured is then left out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// commit is stamped by run.sh with -ldflags "-X main.commit=...".
var commit = "unknown"

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload (default: all, in order)")
	seed := fs.Int64("seed", tableSeed, "workload seed")
	seconds := fs.Int("seconds", 0, "time budget per workload; 0 runs each workload's fixed pass count")
	trace := fs.Int("trace", 0, "1 traces every other pass and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where traced passes write spans and CPU profiles")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for per-pass caches")
	quick := fs.Bool("quick", false, "tiny ops, two passes per workload (smoke test)")
	out := fs.String("out", "", "write the full report as JSON to FILE")
	compare := fs.Bool("compare", false, "compare two reports: --compare A.json B.json")
	update := fs.Bool("update-golden", false, "regenerate the golden fixture")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: --compare takes two report files")
			return 2
		}
		return compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{w}
	}

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	for _, dir := range []string{*work, *traceDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	}
	r := &runner{exe: exe, work: *work, traceDir: *traceDir, golden: golden, log: os.Stderr}
	if *update {
		if err := updateGolden(r); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick}
	r.probe = newMemProbe()
	rep := &report{}
	for _, w := range selected {
		wr, err := r.runWorkload(w, cfg)
		if err != nil {
			return fail(err)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.Env = envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: r.childProcs,
		GoVersion:  runtime.Version(),
		Commit:     commit,
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Seed:       *seed,
		Quick:      *quick,
		Trace:      cfg.trace,
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d\n",
		rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, rep.Env.Seed)
	for _, wr := range rep.Workloads {
		printReport(os.Stdout, wr)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if len(rep.Workloads) == 1 {
		line, err := contractLine(rep.Workloads[0], cfg.trace)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 1
}
