package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/pso"
	"repro/internal/sched"
	"repro/internal/testgen"
)

// smallOpts keeps unit-test runtimes low; the experiment harness uses the
// paper's 5x100 configuration.
func smallOpts(seed int64) Options {
	return Options{
		Outer: pso.Config{Particles: 3, Iterations: 6},
		Inner: pso.Config{Particles: 4, Iterations: 5},
		Seed:  seed,
	}
}

func TestFlowIVDOnIVD(t *testing.T) {
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDFTValves <= 0 {
		t.Fatal("no DFT valves added")
	}
	if res.NumShared != res.NumDFTValves {
		t.Fatalf("shared %d of %d DFT valves; all must share (no extra control ports)", res.NumShared, res.NumDFTValves)
	}
	if res.Control.NumLines() != chip.IVD().NumOriginalValves() {
		t.Fatalf("control lines = %d, want %d (original count)", res.Control.NumLines(), chip.IVD().NumOriginalValves())
	}
	if res.ExecOriginal <= 0 || res.ExecPSO <= 0 || res.ExecNoPSO <= 0 {
		t.Fatalf("non-positive exec times: %+v", res)
	}
	// PSO sharing can only improve on the first-valid sharing.
	if res.ExecPSO > res.ExecNoPSO {
		t.Fatalf("PSO result %d worse than unoptimized %d", res.ExecPSO, res.ExecNoPSO)
	}
	if res.NumTestVectors != len(res.PathVectors)+len(res.CutVectors) {
		t.Fatal("vector count mismatch")
	}
	if len(res.Trace) == 0 {
		t.Fatal("missing convergence trace")
	}
	t.Logf("IVD/IVD: orig=%d noPSO=%d pso=%d indep=%d dft=%d vectors=%d runtime=%v",
		res.ExecOriginal, res.ExecNoPSO, res.ExecPSO, res.ExecIndependent,
		res.NumDFTValves, res.NumTestVectors, res.Runtime)
}

// The flow's finalize stage runs the quantitative leakage campaign over
// the final cut vectors on the sparse pressure engine and attributes its
// solve counters to the stage.
func TestFlowQuantifiesLeakage(t *testing.T) {
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CutVectors) == 0 {
		t.Fatal("no cut vectors to quantify")
	}
	l := res.Leakage
	if l == nil {
		t.Fatal("missing leakage report")
	}
	if l.Vectors != len(res.CutVectors) || l.Examined == 0 {
		t.Fatalf("leakage campaign incomplete: %+v over %d cuts", l, len(res.CutVectors))
	}
	if l.Detectable+len(l.Undetectable) != l.Examined {
		t.Fatalf("leakage counts don't add up: %+v", l)
	}
	if l.Solves.Solves == 0 {
		t.Fatalf("no pressure solves recorded: %+v", l.Solves)
	}
	final := res.Stats.Stages[len(res.Stats.Stages)-1]
	if final.Counter("pressure_solves") != l.Solves.Solves {
		t.Fatalf("finalize stage counter %d, report %d", final.Counter("pressure_solves"), l.Solves.Solves)
	}
	if final.Counter("leakage_examined") != int64(l.Examined) {
		t.Fatalf("finalize stage examined counter %d, report %d", final.Counter("leakage_examined"), l.Examined)
	}
}

// The headline property: the returned architecture + sharing + vectors
// achieve full fault coverage with a single source and a single meter.
func TestFlowFullCoverageSingleSourceSingleMeter(t *testing.T) {
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	sim := fault.MustSimulator(res.Aug.Chip, res.Control)
	vectors := append(append([]fault.Vector{}, res.PathVectors...), res.CutVectors...)
	cov := sim.EvaluateCoverage(vectors, fault.AllFaults(res.Aug.Chip))
	if !cov.Full() {
		t.Fatalf("coverage %v under returned sharing; undetected: %v", cov, cov.Undetected)
	}
	for _, v := range vectors {
		if len(v.Sources) != 1 || len(v.Meters) != 1 {
			t.Fatalf("vector needs multiple instruments: %v", v)
		}
		if v.Sources[0] != res.Aug.Source || v.Meters[0] != res.Aug.Meter {
			t.Fatalf("vector uses wrong ports: %v", v)
		}
	}
}

// The returned schedule quality must equal an actual scheduler run.
func TestFlowExecTimeReproducible(t *testing.T) {
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	et, ok := sched.ExecutionTime(res.Aug.Chip, res.Control, assay.IVD(), Options{}.Sched)
	if !ok {
		t.Fatal("returned sharing unschedulable")
	}
	if et != res.ExecPSO {
		t.Fatalf("re-run exec %d != reported %d", et, res.ExecPSO)
	}
}

func TestFlowDeterministicForSeed(t *testing.T) {
	a, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecPSO != b.ExecPSO || a.NumDFTValves != b.NumDFTValves {
		t.Fatalf("nondeterministic flow: (%d,%d) vs (%d,%d)", a.ExecPSO, a.NumDFTValves, b.ExecPSO, b.NumDFTValves)
	}
}

func TestTraceNonIncreasing(t *testing.T) {
	res, err := RunDFTFlow(chip.RA30(), assay.IVD(), smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1]+1e-9 {
			t.Fatalf("trace increased at %d: %v -> %v", i, res.Trace[i-1], res.Trace[i])
		}
	}
	if math.IsInf(res.Trace[len(res.Trace)-1], 1) {
		t.Fatal("final trace entry is ∞; flow should have failed instead")
	}
}

func TestDecodePartnersInjective(t *testing.T) {
	c := chip.IVD()
	for e, added := 0, 0; e < c.Grid.NumEdges() && added < 5; e++ {
		if _, occ := c.ValveOnEdge(e); !occ {
			if _, err := c.AddDFTChannel(e); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	f := &flow{orig: c}
	x := []float64{0.1, 0.1, 0.1, 0.9, 0.9} // deliberate collisions
	partners := f.decodePartners(c, x)
	seen := map[int]bool{}
	for _, p := range partners {
		if p < 0 || p >= c.NumOriginalValves() {
			t.Fatalf("partner %d out of range", p)
		}
		if seen[p] {
			t.Fatalf("duplicate partner %d in %v", p, partners)
		}
		seen[p] = true
	}
}

func TestFirstValidSharingRotation(t *testing.T) {
	c := chip.IVD()
	g := assay.IVD()
	aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &flow{
		orig: c, graph: g, opts: Options{}.withDefaults(),
		augCache:   artifact.NewCache[*augEval](),
		innerCache: artifact.NewCache[float64](),
	}
	ev := f.evalAug(aug)
	if ev.cutsErr != nil {
		t.Fatal(ev.cutsErr)
	}
	et, partners, err := f.firstValidSharing(ev)
	if err != nil {
		t.Fatal(err)
	}
	if et <= 0 || len(partners) != aug.Chip.NumDFTValves() {
		t.Fatalf("et=%d partners=%v", et, partners)
	}
}

// TestAugKeyMatchesFmt pins augKey and intsKey to the fmt forms they were
// first written with. augKey's bytes seed each configuration's inner swarm
// and order bestEvalSeen's ties, so a key that drifts by one byte changes
// flow results. The sample is 200 heuristic configurations per bundled
// chip under seeded edge weights, each with a decoded partner assignment.
func TestAugKeyMatchesFmt(t *testing.T) {
	fmtAugKey := func(aug *testgen.Augmentation) string {
		var b strings.Builder
		fmt.Fprintf(&b, "e%v|s%d|m%d", aug.AddedEdges, aug.Source, aug.Meter)
		for _, p := range aug.Paths {
			fmt.Fprintf(&b, "|%v", p)
		}
		return b.String()
	}
	fmtIntsKey := func(s []int) string {
		var b strings.Builder
		for _, v := range s {
			fmt.Fprintf(&b, "%d,", v)
		}
		return b.String()
	}
	rng := rand.New(rand.NewSource(28))
	for _, c := range []*chip.Chip{chip.IVD(), chip.RA30(), chip.MRNA()} {
		f := &flow{orig: c, opts: Options{}.withDefaults(), allowPartial: true}
		for i := 0; i < 200; i++ {
			weights := make([]float64, c.Grid.NumEdges())
			for _, e := range f.freeEdges() {
				weights[e] = rng.Float64() * 4
			}
			aug, err := testgen.AugmentHeuristic(c, testgen.Options{EdgeWeights: weights})
			if err != nil {
				t.Fatalf("%s config %d: %v", c.Name, i, err)
			}
			if got, want := augKey(aug), fmtAugKey(aug); got != want {
				t.Fatalf("%s config %d: augKey %q, fmt form %q", c.Name, i, got, want)
			}
			x := make([]float64, aug.Chip.NumDFTValves())
			for j := range x {
				x[j] = rng.Float64()
			}
			partners := f.decodePartners(aug.Chip, x)
			if got, want := intsKey(partners), fmtIntsKey(partners); got != want {
				t.Fatalf("%s config %d: intsKey %q, fmt form %q", c.Name, i, got, want)
			}
		}
	}
}
