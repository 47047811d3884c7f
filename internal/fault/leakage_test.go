// External test package: the leakage campaign is exercised through
// testgen-generated cut vectors, and testgen imports fault.
package fault_test

import (
	"context"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/pressure"
	"repro/internal/testgen"
)

// leakageFixture augments a benchmark chip and returns its simulator and
// cut vectors — the inputs QuantifyLeakage sees in the DFT flow.
func leakageFixture(t *testing.T, c *chip.Chip) (*fault.Simulator, []fault.Vector) {
	t.Helper()
	aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := testgen.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
	if err != nil {
		t.Fatal(err)
	}
	return fault.MustSimulator(aug.Chip, chip.IndependentControl(aug.Chip)), cuts
}

func TestQuantifyLeakage(t *testing.T) {
	sim, cuts := leakageFixture(t, chip.IVD())
	rep, err := fault.QuantifyLeakage(context.Background(), sim, cuts, fault.LeakageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vectors != len(cuts) {
		t.Fatalf("evaluated %d of %d cut vectors", rep.Vectors, len(cuts))
	}
	if rep.Examined == 0 || rep.Detectable == 0 {
		t.Fatalf("degenerate campaign: %+v", rep)
	}
	if rep.Detectable+len(rep.Undetectable) != rep.Examined {
		t.Fatalf("counts don't add up: %+v", rep)
	}
	if rep.Solves.Solves == 0 || rep.Solves.Warm == 0 {
		t.Fatalf("campaign never hit the engine's warm path: %+v", rep.Solves)
	}
	if r := rep.Ratio(); r < 0 || r > 1 {
		t.Fatalf("ratio %v outside [0,1]", r)
	}
}

// TestQuantifyLeakageZeroLeak: with HasLeakConductance an airtight "leak"
// is expressible, and nothing can be detectable.
func TestQuantifyLeakageZeroLeak(t *testing.T) {
	sim, cuts := leakageFixture(t, chip.IVD())
	rep, err := fault.QuantifyLeakage(context.Background(), sim, cuts, fault.LeakageOptions{
		Params: pressure.Params{HasLeakConductance: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detectable != 0 {
		t.Fatalf("zero-conductance leaks detected: %+v", rep)
	}
}

// TestQuantifyLeakageMeterSensitivity: a more sensitive meter can only
// widen the detectable set.
func TestQuantifyLeakageMeterSensitivity(t *testing.T) {
	sim, cuts := leakageFixture(t, chip.RA30())
	coarse, err := fault.QuantifyLeakage(context.Background(), sim, cuts, fault.LeakageOptions{
		Params: pressure.Params{MeterThreshold: 0.04},
	})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := fault.QuantifyLeakage(context.Background(), sim, cuts, fault.LeakageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Detectable < coarse.Detectable {
		t.Fatalf("sensitive meter detects less: fine %+v, coarse %+v", fine, coarse)
	}
}

func TestQuantifyLeakageCancel(t *testing.T) {
	sim, cuts := leakageFixture(t, chip.IVD())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fault.QuantifyLeakage(ctx, sim, cuts, fault.LeakageOptions{}); err == nil {
		t.Fatal("cancelled campaign must fail")
	}
}
