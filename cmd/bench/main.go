// Command bench measures the fault-simulation campaign engines on the
// largest bundled design (mRNA) and writes the results as JSON:
//
//	bench [-out BENCH_fault.json]
//	bench -ilp [-out BENCH_ilp.json]
//	bench -pressure [-out BENCH_pressure.json]
//	bench -diagnose [-out BENCH_diagnose.json]
//	bench -pso [-out BENCH_pso.json]
//	bench -sched [-out BENCH_sched.json]
//	bench -fpva [-out BENCH_fpva.json] [-baseline BENCH_fpva.json]
//	bench -cache [-out BENCH_cache.json] [-baseline BENCH_cache.json]
//
// With -ilp it instead benchmarks the branch-and-bound ILP engine on the
// paper's test-path and test-cut models of both example chips (see ilp.go).
// With -pressure it benchmarks the node-pressure solvers — dense baseline
// vs the sparse cached-factorization engine, cold and warm, plus the
// parallel batch API — on every bundled design (see pressure.go).
// With -diagnose it measures adaptive fault diagnosis against exhaustive
// replay — vectors-to-localize, suspect-set sizes and campaign
// throughput per design, with a worker-count determinism check (see
// diagnose.go).
// With -pso it measures the two-level PSO DFT flow's batch-synchronous
// fitness engine at 1/2/4/8 workers per design, with outer-stage
// wall-clock, cache hit rates and a worker-count determinism check (see
// pso.go).
// With -sched it measures the warm-start scheduler engine — a fresh engine
// per call vs one engine reused across a control set — per design, with
// bit-identity asserted on every schedule (see sched.go).
// With -fpva it measures per-valve test-suite generation on a scaling
// curve of generated FPVA grids (8x8 through 64x64) — the per-valve
// baseline solver vs the symmetry-exploiting template engine — with a
// coverage bit-identity gate, worker-count invariance checks, a
// cross-size template-cache leg and peak-RSS tracking (see fpva.go).
// With -cache it measures the content-addressed artifact cache: per
// bundled design the DFT flow uncached vs cold/warm-memory/warm-disk
// through the cache (bit-identity gated, warm-disk must skip every solve
// stage), plus a 75%-duplicate 32-job batch leg serial vs core.RunBatch
// with worker-count determinism checks (see cache.go). -cache and -fpva
// accept -baseline FILE to additionally gate the fresh speedups against
// a committed artifact (fresh >= 50% of committed, see baseline.go).
//
// Every mode accepts -cpuprofile FILE and -memprofile FILE to capture
// pprof profiles of the run.
//
// Three variants run over the same cold campaign (fresh simulator per
// iteration): the seed's serial recomputation baseline, the memoized
// single-worker engine, and the parallel worker pool. The JSON records
// ns/op, bytes/op and allocs/op per variant so regressions are diffable
// in CI artifacts. The committed BENCH_fault.json is regenerated with:
//
//	go run ./cmd/bench -out BENCH_fault.json
//
// Exit codes: 0 success; 1 error; 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/chip"
	"repro/internal/cliutil"
	"repro/internal/fault"
)

const tool = "bench"

// Doc is the serialized benchmark report.
type Doc struct {
	Chip       string   `json:"chip"`
	Vectors    int      `json:"vectors"`
	Faults     int      `json:"faults"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Result is one variant's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	SpeedupVs   float64 `json:"speedup_vs_serial,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	outFile := flag.String("out", "", "write the JSON report to FILE (default: stdout)")
	ilpMode := flag.Bool("ilp", false, "benchmark the branch-and-bound ILP engine (seed serial vs parallel at 1/2/4/8 workers) instead of the fault campaign")
	pressureMode := flag.Bool("pressure", false, "benchmark the node-pressure solvers (dense vs sparse-cold vs sparse-warm vs parallel) per design instead of the fault campaign")
	diagnoseMode := flag.Bool("diagnose", false, "benchmark adaptive fault diagnosis vs exhaustive replay per design instead of the fault campaign")
	psoMode := flag.Bool("pso", false, "benchmark the two-level PSO fitness engine (serial recompute vs memoized vs batch at 1/2/4/8 workers) instead of the fault campaign")
	schedMode := flag.Bool("sched", false, "benchmark the warm-start scheduler engine (seed baseline vs cold vs warm) per design instead of the fault campaign")
	fpvaMode := flag.Bool("fpva", false, "benchmark per-valve suite generation (baseline vs symmetry templates) on a scaling curve of generated FPVA grids instead of the fault campaign")
	cacheMode := flag.Bool("cache", false, "benchmark the content-addressed artifact cache (uncached vs cold/warm flow runs, dedup batch submission) instead of the fault campaign")
	baselineFile := flag.String("baseline", "", "with -cache or -fpva: gate the fresh speedups against this committed JSON artifact")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC) to FILE after the run")
	flag.Parse()
	modes := 0
	for _, m := range []bool{*ilpMode, *pressureMode, *diagnoseMode, *psoMode, *schedMode, *fpvaMode, *cacheMode} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		return cliutil.Usagef(tool, "-ilp, -pressure, -diagnose, -pso, -sched, -fpva and -cache are mutually exclusive")
	}
	if *baselineFile != "" && !*fpvaMode && !*cacheMode {
		return cliutil.Usagef(tool, "-baseline is only meaningful with -cache or -fpva")
	}
	stopProfile, err := cliutil.StartCPUProfile(*cpuProfile)
	if err != nil {
		return cliutil.Fail(tool, err)
	}
	code := func() int {
		defer stopProfile()
		switch {
		case *ilpMode:
			return runILP(*outFile)
		case *pressureMode:
			return runPressure(*outFile)
		case *diagnoseMode:
			return runDiagnose(*outFile)
		case *psoMode:
			return runPSO(*outFile)
		case *schedMode:
			return runSched(*outFile)
		case *fpvaMode:
			return runFPVA(*outFile, *baselineFile)
		case *cacheMode:
			return runCache(*outFile, *baselineFile)
		default:
			return runFault(*outFile)
		}
	}()
	if err := cliutil.WriteHeapProfile(*memProfile); err != nil {
		return cliutil.Fail(tool, err)
	}
	return code
}

// runFault is the default mode: the fault-simulation campaign engines on
// the largest bundled design.
func runFault(outFile string) int {
	c := chip.MRNA()
	vectors := fault.BenchCampaignVectors(c)
	faults := fault.AllFaults(c)

	variants := []struct {
		name string
		run  func(sim *fault.Simulator)
	}{
		{"serial", func(sim *fault.Simulator) { fault.EvaluateCoverageBaseline(sim, vectors, faults) }},
		{"memoized", func(sim *fault.Simulator) { fault.NewEngine(sim, 1).EvaluateCoverage(vectors, faults) }},
		{"parallel", func(sim *fault.Simulator) { fault.NewEngine(sim, 0).EvaluateCoverage(vectors, faults) }},
	}

	doc := Doc{
		Chip:       c.Name,
		Vectors:    len(vectors),
		Faults:     len(faults),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var serialNs int64
	for _, v := range variants {
		run := v.run
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim, err := fault.NewSimulator(c, chip.IndependentControl(c))
				if err != nil {
					b.Fatal(err)
				}
				run(sim)
			}
		})
		r := Result{
			Name:        v.name,
			Iterations:  br.N,
			NsPerOp:     br.NsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			AllocsPerOp: br.AllocsPerOp(),
		}
		if v.name == "serial" {
			serialNs = r.NsPerOp
		} else if serialNs > 0 && r.NsPerOp > 0 {
			r.SpeedupVs = float64(serialNs) / float64(r.NsPerOp)
		}
		doc.Results = append(doc.Results, r)
		fmt.Fprintf(os.Stderr, "%-9s %12d ns/op %10d B/op %8d allocs/op\n",
			v.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}

	return writeBenchArtifact(outFile, doc)
}
