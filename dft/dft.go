// Package dft is the public API of the biochip design-for-testability
// library, a Go reproduction of "Design-for-Testability for
// Continuous-Flow Microfluidic Biochips" (Liu, Li, Ho, Chakrabarty,
// Schlichtmann — DAC 2018).
//
// The library takes a continuous-flow biochip architecture and a bioassay,
// and produces an augmented architecture that can be tested for
// manufacturing defects (stuck-at-0: valves that cannot open or blocked
// channels; stuck-at-1: valves that cannot close) with a single pressure
// source and a single pressure meter, instead of a rack of instruments.
// The valves added for testability share control lines with existing
// valves — no new control ports — and a two-level particle swarm
// optimization keeps the assay's execution time at the level of the
// unmodified chip.
//
// # Quick start
//
//	c := dft.ChipIVD()                 // or build your own with dft.NewChipBuilder
//	a := dft.AssayIVD()                // or build your own with dft.NewAssay
//	res, err := dft.Run(c, a, dft.Options{Seed: 1})
//	// res.Aug.Chip is the augmented architecture,
//	// res.PathVectors/res.CutVectors the complete test set,
//	// res.ExecPSO the optimized execution time.
//
// The subpackages under internal/ implement the substrates: the connection
// grid and chip netlists, the ILP and PSO engines, the fault simulator,
// test-path/cut generation, and the scheduler.
package dft

import (
	"context"
	"io"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/grid"
	"repro/internal/loader"
	"repro/internal/pso"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/testgen"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Chip is a biochip netlist on a connection grid.
	Chip = chip.Chip
	// ChipBuilder assembles custom chips.
	ChipBuilder = chip.Builder
	// Control is a valve-to-control-line assignment.
	Control = chip.Control
	// Coord is a connection-grid coordinate.
	Coord = grid.Coord
	// Assay is a bioassay sequencing graph.
	Assay = assay.Graph
	// Options tunes the DFT flow (PSO sizes, scheduler model, ILP usage).
	Options = core.Options
	// Result is the output of the DFT flow.
	Result = core.Result
	// Augmentation is a DFT configuration with its test paths.
	Augmentation = testgen.Augmentation
	// AugmentOptions tunes the test-generation engines (path caps, edge
	// weights, branch-and-bound budgets).
	AugmentOptions = testgen.Options
	// Vector is a single test vector (path or cut).
	Vector = fault.Vector
	// Fault is a manufacturing defect at a valve.
	Fault = fault.Fault
	// Coverage summarizes a fault-simulation campaign.
	Coverage = fault.Coverage
	// Schedule is a scheduled assay execution.
	Schedule = sched.Schedule
	// SchedParams tunes the execution-time model.
	SchedParams = sched.Params
	// PSOConfig tunes one PSO level.
	PSOConfig = pso.Config
	// FlowObserver receives live pipeline events from a running flow
	// (stage boundaries, solver iteration ticks, chain tier transitions,
	// cache-hit deltas). Set it on Options.Observer; flowstage.Nop is the
	// no-op observer. Observers never affect results.
	FlowObserver = flowstage.Observer
	// FlowStats is a flow's per-stage runtime breakdown (Result.Stats).
	FlowStats = flowstage.Stats
	// StageStats is one pipeline stage's share of a flow's work.
	StageStats = flowstage.StageStats
)

// Device kinds for ChipBuilder.AddDevice.
const (
	Mixer    = chip.Mixer
	Detector = chip.Detector
	Heater   = chip.Heater
	Filter   = chip.Filter
)

// Operation kinds for Assay building.
const (
	Dispense = assay.Dispense
	Mix      = assay.Mix
	Detect   = assay.Detect
)

// Fault kinds.
const (
	StuckAt0 = fault.StuckAt0
	StuckAt1 = fault.StuckAt1
	Leakage  = fault.Leakage
)

// Run executes the complete two-level PSO DFT flow: augment the chip for
// single-source single-meter testability, choose a valve-sharing scheme
// that keeps the test set valid, and optimize the assay's execution time.
func Run(c *Chip, a *Assay, opts Options) (*Result, error) {
	return core.RunDFTFlow(c, a, opts)
}

// RunCtx is Run with cooperative cancellation and graceful degradation:
// the context bounds the search phases, and on expiry the flow finishes
// with the best configuration found so far, marking the result
// Interrupted. Result.Solve records which augmentation tier produced the
// reference configuration.
func RunCtx(ctx context.Context, c *Chip, a *Assay, opts Options) (*Result, error) {
	return core.RunDFTFlowCtx(ctx, c, a, opts)
}

// Augment computes only the DFT configuration (added channels/valves and
// the stuck-at-0 test paths) without valve sharing or scheduling, using
// the greedy engine. Set useILP to solve the paper's ILP (eqs. (1)-(6))
// exactly instead.
func Augment(c *Chip, useILP bool) (*Augmentation, error) {
	return AugmentCtx(context.Background(), c, useILP)
}

// AugmentCtx is Augment with cooperative cancellation: an expired context
// stops the solve within one branch-and-bound node (ILP) or one covered
// edge (heuristic) and returns the context's error.
func AugmentCtx(ctx context.Context, c *Chip, useILP bool) (*Augmentation, error) {
	if useILP {
		return testgen.AugmentILPCtx(ctx, c, testgen.Options{})
	}
	return testgen.AugmentHeuristicCtx(ctx, c, testgen.Options{})
}

// GenerateCuts produces stuck-at-1 test cuts for a chip between the given
// ports (use the Augmentation's Source and Meter for DFT chips).
func GenerateCuts(c *Chip, source, meter int) ([]Vector, error) {
	return testgen.GenerateCuts(c, source, meter)
}

// GenerateCutsOptimal is GenerateCuts with an exact minimum-cardinality
// set cover (candidate enumeration + the same branch-and-bound engine as
// the path ILP) instead of the greedy cover.
func GenerateCutsOptimal(c *Chip, source, meter int) ([]Vector, error) {
	return testgen.GenerateCutsOptimal(c, source, meter)
}

// BaselineVectors generates the multi-source multi-meter test set of an
// unaugmented chip (the comparison baseline of the paper's Fig. 8).
func BaselineVectors(c *Chip) (paths, cuts []Vector, err error) {
	return testgen.BaselineVectors(c)
}

// AllFaults enumerates every stuck-at-0 and stuck-at-1 fault of a chip.
func AllFaults(c *Chip) []Fault { return fault.AllFaults(c) }

// NewSimulator returns a pressure-propagation fault simulator for the chip
// under the given control assignment (nil for independent control). It
// returns fault.ErrControlMismatch when the control assignment was built
// for a different chip. The simulator memoizes the fault-free analysis of
// each applied valve state, so repeated queries, and vectors that differ
// only in sources and meters, never re-derive it; Certifies and Cover
// answer several questions about one vector in one evaluation.
func NewSimulator(c *Chip, ctrl *Control) (*fault.Simulator, error) {
	if ctrl == nil {
		ctrl = chip.IndependentControl(c)
	}
	return fault.NewSimulator(c, ctrl)
}

// Engine is the fault-simulation campaign runner; its campaigns and
// detection matrices share their simulator's state memo.
type Engine = fault.Engine

// NewEngine returns a campaign engine over sim whose detection matrices
// fan their rows out across a worker pool (workers <= 0 = all CPU cores).
// A coverage campaign asks each usable vector only the faults it can
// reveal, serially, and is bit-identical to Simulator.EvaluateCoverage
// for any worker count, including Undetected order; EvaluateCoverageCtx
// stops within one vector when the context is cancelled.
func NewEngine(sim *fault.Simulator, workers int) *Engine {
	return fault.NewEngine(sim, workers)
}

// LeakageReport and LeakageOptions belong to the quantitative leakage
// campaign (QuantifyLeakage).
type (
	LeakageReport  = fault.LeakageReport
	LeakageOptions = fault.LeakageOptions
)

// Diagnosis and reconfiguration surface (set Options.Diagnose /
// Options.Reconfigure to run them as flow stages, or drive the engines
// directly).
type (
	// DetectionMatrix is the dense (vector, fault) detection relation the
	// adaptive diagnosis engine selects tests from; build one with
	// Engine.DetectionMatrix.
	DetectionMatrix = fault.DetectionMatrix
	// DiagnosisPlanner runs the adaptive → greedy → replay diagnosis
	// chain for one fault or a whole campaign.
	DiagnosisPlanner = diagnose.Planner
	// DiagnosisResult is one localized fault: ranked suspects, the
	// applied vectors and per-step entropy statistics.
	DiagnosisResult = diagnose.Result
	// FaultDiagnosis pairs a campaign fault with its diagnosis outcome
	// and chain provenance.
	FaultDiagnosis = diagnose.FaultDiagnosis
	// Reconfigurer reschedules an assay around located faults through the
	// reconf-strict → reconf-reroute → reconf-relaxed chain.
	Reconfigurer = diagnose.Reconfigurer
	// Reconfiguration is a validated fault-avoiding schedule with its
	// execution-time penalty against the fault-free baseline.
	Reconfiguration = diagnose.Reconfiguration
	// DiagnosisSummary and ReconfigSummary are the flow-level aggregates
	// (Result.Diagnosis / Result.Reconfiguration).
	DiagnosisSummary = core.DiagnosisSummary
	ReconfigSummary  = core.ReconfigSummary
)

// Per-valve test-suite generation (paths + cuts for every valve under
// independent control — the pre-DFT campaign the scaling benchmarks
// measure) and the parametric FPVA grid generator it scales on.
type (
	// FPVAParams parameterizes the fully programmable valve-array
	// generator: an N×M sieve-valve grid with perimeter ports,
	// deterministic in Seed.
	FPVAParams = chip.FPVAParams
	// TestSuite is a complete per-valve vector suite (one path and one
	// cut per valve where solvable) with its generation statistics.
	TestSuite = testgen.Suite
	// TestSuiteOptions tunes suite generation (worker-pool size).
	TestSuiteOptions = testgen.SuiteOptions
	// SuiteRunOptions and SuiteRunResult belong to RunTestSuite, the
	// observable two-stage pipeline (generate → campaign) over a suite.
	SuiteRunOptions = core.SuiteRunOptions
	SuiteRunResult  = core.SuiteRunResult
)

// GenerateFPVA builds a parametric FPVA chip; it returns an error for
// degenerate dimensions. MustGenerateFPVA panics instead.
func GenerateFPVA(p FPVAParams) (*Chip, error) { return chip.GenerateFPVA(p) }
func MustGenerateFPVA(p FPVAParams) *Chip      { return chip.MustGenerateFPVA(p) }

// SyntheticAssay builds a deterministic synthetic bioassay with the given
// operation count, sized for generated FPVA chips.
func SyntheticAssay(ops int, seed int64) *Assay { return assay.Synthetic(ops, seed) }

// GenerateSuite produces a per-valve test suite, the one RunTestSuite
// generates: a valve on a uniformly valved grid line with boundary ports at
// both ends gets the line's closed-form path and the cut across its lattice
// gap; every other valve gets its own path and cut solve. Suites are
// bit-identical for any worker count.
func GenerateSuite(c *Chip, opts TestSuiteOptions) (*TestSuite, error) {
	return testgen.GenerateTemplates(c, opts)
}

// RunTestSuite generates a suite and fault-simulates it as an observable
// two-stage pipeline on one simulator, with per-stage counters for the
// line and solved vectors and the fault-simulation traffic.
func RunTestSuite(c *Chip, opts SuiteRunOptions) (*SuiteRunResult, error) {
	return core.RunSuite(c, opts)
}

// RunTestSuiteCtx is RunTestSuite with cooperative cancellation.
func RunTestSuiteCtx(ctx context.Context, c *Chip, opts SuiteRunOptions) (*SuiteRunResult, error) {
	return core.RunSuiteCtx(ctx, c, opts)
}

// Content-addressed artifact caching (see internal/core and
// internal/artifact). An ArtifactCache stores finalized flow Results, test
// suites and test sets by content digest in a directory, so a rerun with
// the same inputs decodes the stored result instead of solving again.
type (
	// ArtifactCache is the disk-backed cache; pass it on Options.Cache or
	// SuiteRunOptions.Cache.
	ArtifactCache = core.Cache
	// ArtifactCacheConfig configures NewArtifactCache.
	ArtifactCacheConfig = core.CacheConfig
	// TestSet is the standalone augmentation + cut-cover artifact
	// (BuildTestSet) the inspection CLIs consume.
	TestSet = core.TestSet
)

// NewArtifactCache opens the artifact cache rooted at cfg.Dir (created if
// missing); an empty Dir is an error.
func NewArtifactCache(cfg ArtifactCacheConfig) (*ArtifactCache, error) {
	return core.NewCache(cfg)
}

// BuildTestSet augments a chip heuristically and generates its cut cover
// (exact when optimal), consulting the artifact cache when non-nil.
func BuildTestSet(c *Chip, optimal bool, cache *ArtifactCache) (*TestSet, error) {
	return core.BuildTestSet(c, optimal, cache)
}

// BuildTestSetCtx is BuildTestSet with cooperative cancellation.
func BuildTestSetCtx(ctx context.Context, c *Chip, optimal bool, cache *ArtifactCache) (*TestSet, error) {
	return core.BuildTestSetCtx(ctx, c, optimal, cache)
}

// EncodeResult renders a Result in the canonical encoding the cache
// stores; byte equality of encodings is the bit-identity criterion the
// benchmarks gate on. DecodeResult rebuilds a live Result against the
// original (unaugmented) chip.
func EncodeResult(res *Result) ([]byte, error) { return core.EncodeResult(res) }

// DecodeResult is the inverse of EncodeResult.
func DecodeResult(orig *Chip, payload []byte) (*Result, error) {
	return core.DecodeResult(orig, payload)
}

// Sentinel errors of the diagnosis/reconfiguration engines.
var (
	// ErrDiagnoseBudget reports an adaptive/greedy diagnosis that ran out
	// of vector budget before converging (the chain then falls through to
	// exhaustive replay).
	ErrDiagnoseBudget = diagnose.ErrBudget
	// ErrReconfigInfeasible reports a suspect set whose bans leave no
	// valid schedule at any reconfiguration tier.
	ErrReconfigInfeasible = diagnose.ErrInfeasible
)

// QuantifyLeakage reruns the cut vectors through the quantitative
// pressure model (sparse cached-factorization engine) and reports which
// closed-valve leaks push a meter past its threshold — the paper's
// membrane-leakage extension, evaluated instead of assumed.
func QuantifyLeakage(ctx context.Context, sim *fault.Simulator, cuts []Vector, opts LeakageOptions) (*LeakageReport, error) {
	return fault.QuantifyLeakage(ctx, sim, cuts, opts)
}

// IndependentControl gives every valve its own control line.
func IndependentControl(c *Chip) *Control { return chip.IndependentControl(c) }

// SharedControl builds a control assignment where DFT valve i shares the
// line of original valve partners[i].
func SharedControl(c *Chip, partners []int) (*Control, error) {
	return chip.SharedControl(c, partners)
}

// Schedule runs the list scheduler for an assay on a chip under a control
// assignment (nil = independent) and returns the full schedule.
func ScheduleAssay(c *Chip, ctrl *Control, a *Assay, p SchedParams) (*Schedule, error) {
	return sched.Run(c, ctrl, a, p)
}

// SchedEngine is the warm-start scheduler: built once per (chip, assay,
// ban-set), it precomputes every control-independent piece of routing and
// validation state so that each Run only pays for the control-dependent
// simulation. Schedules are bit-identical to ScheduleAssay's.
type SchedEngine = sched.Engine

// NewSchedEngine builds a warm-start scheduler engine. Callers evaluating
// many control assignments on one chip (the PSO fitness pattern) should
// build one engine and call its Run methods instead of ScheduleAssay.
func NewSchedEngine(c *Chip, a *Assay, p SchedParams) (*SchedEngine, error) {
	return sched.NewEngine(c, a, p)
}

// ControlLayer is a synthesized physical control layer (routing of the
// air channels that actuate the valves).
type ControlLayer = control.Layer

// ControlParams tunes control-layer synthesis.
type ControlParams = control.Params

// SynthesizeControl routes the control layer for a chip under a control
// assignment and reports channel length, actuation delays and sharing
// skew — the physical backing of the paper's "no additional control
// ports" claim.
func SynthesizeControl(c *Chip, ctrl *Control, p ControlParams) (*ControlLayer, error) {
	return control.Synthesize(c, ctrl, p)
}

// CompareControlOverhead synthesizes the control layer under the given
// sharing and under independent control, returning both stats.
func CompareControlOverhead(c *Chip, shared *Control, p ControlParams) (sharedStats, indepStats control.Stats, err error) {
	return control.CompareSharingOverhead(c, shared, p)
}

// EstimateTestTime returns the seconds needed to apply a vector set on the
// single-source single-meter platform.
func EstimateTestTime(vectors []Vector, p testgen.TestTimeParams) int {
	return testgen.EstimateTestTime(vectors, p)
}

// ReadChip loads a chip architecture from its JSON spec (see package
// repro/internal/loader for the schema).
func ReadChip(r io.Reader) (*Chip, error) { return loader.ReadChip(r) }

// ReadAssay loads a sequencing graph from its JSON spec.
func ReadAssay(r io.Reader) (*Assay, error) { return loader.ReadAssay(r) }

// WriteChip serializes a chip to its JSON spec.
func WriteChip(w io.Writer, c *Chip) error { return loader.WriteChip(w, c) }

// WriteAssay serializes a sequencing graph to its JSON spec.
func WriteAssay(w io.Writer, a *Assay) error { return loader.WriteAssay(w, a) }

// WriteReport emits a flow result as a JSON test-program document.
func WriteReport(w io.Writer, res *Result) error { return report.WriteJSON(w, res) }

// NewChipBuilder starts a custom chip on a fresh w×h connection grid.
func NewChipBuilder(name string, w, h int) *ChipBuilder {
	return chip.NewBuilder(name, w, h)
}

// XY is a convenience constructor for grid coordinates.
func XY(x, y int) Coord { return Coord{X: x, Y: y} }

// NewAssay returns an empty sequencing graph.
func NewAssay(name string) *Assay { return assay.New(name) }

// Benchmark chips from the paper's Table 1.
func ChipIVD() *Chip  { return chip.IVD() }
func ChipRA30() *Chip { return chip.RA30() }
func ChipMRNA() *Chip { return chip.MRNA() }

// Benchmark assays from the paper's Table 1.
func AssayIVD() *Assay { return assay.IVD() }
func AssayPID() *Assay { return assay.PID() }
func AssayCPA() *Assay { return assay.CPA() }

// Chips returns all benchmark chips in Table 1 order.
func Chips() []*Chip { return chip.Benchmarks() }

// Assays returns all benchmark assays in Table 1 order.
func Assays() []*Assay { return assay.Benchmarks() }

// ChipByName resolves "IVD_chip", "RA30_chip" or "mRNA_chip".
func ChipByName(name string) (*Chip, bool) { return chip.BenchmarkByName(name) }

// AssayByName resolves "IVD", "PID" or "CPA".
func AssayByName(name string) (*Assay, bool) { return assay.BenchmarkByName(name) }
