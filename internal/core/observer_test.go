package core

import (
	"strings"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/flowstage"
	"repro/internal/pso"
)

// TestObserverEventOrdering runs a small flow with a recording observer
// and checks the event stream's shape: the five stages bracket in
// pipeline order, solver ticks only fire inside the stages that search,
// and ticks carry the stage they belong to.
func TestObserverEventOrdering(t *testing.T) {
	rec := &flowstage.Recorder{}
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), Options{
		Outer:    pso.Config{Particles: 4, Iterations: 6},
		Inner:    pso.Config{Particles: 4, Iterations: 4},
		Seed:     7,
		Observer: rec,
	})
	if err != nil {
		t.Fatalf("RunDFTFlow: %v", err)
	}
	events := rec.Events()

	// Stage brackets appear in pipeline order, properly nested.
	var brackets []string
	for _, e := range events {
		if strings.HasPrefix(e, "start:") || strings.HasPrefix(e, "end:") {
			brackets = append(brackets, e)
		}
	}
	want := []string{
		"start:" + StageSchedule, "end:" + StageSchedule,
		"start:" + StageReference, "end:" + StageReference,
		"start:" + StageBanLoop, "end:" + StageBanLoop,
		"start:" + StageOuter, "end:" + StageOuter,
		"start:" + StageFinalize, "end:" + StageFinalize,
	}
	if len(brackets) != len(want) {
		t.Fatalf("stage brackets = %v, want %v", brackets, want)
	}
	for i := range want {
		if brackets[i] != want[i] {
			t.Fatalf("bracket %d = %q, want %q (all: %v)", i, brackets[i], want[i], brackets)
		}
	}

	// Every event between a stage's start and end names that stage;
	// solver ticks only occur in the searching stages.
	cur := ""
	ticks := map[string]int{}
	for _, e := range events {
		switch {
		case strings.HasPrefix(e, "start:"):
			if cur != "" {
				t.Fatalf("nested stage start %q inside %q", e, cur)
			}
			cur = strings.TrimPrefix(e, "start:")
		case strings.HasPrefix(e, "end:"):
			if got := strings.TrimPrefix(e, "end:"); got != cur {
				t.Fatalf("end:%s while in stage %q", got, cur)
			}
			cur = ""
		default:
			parts := strings.SplitN(e, ":", 3)
			if len(parts) < 2 || parts[1] != cur {
				t.Fatalf("event %q emitted outside its stage (current %q)", e, cur)
			}
			if parts[0] == "tick" {
				ticks[cur]++
			}
		}
	}
	if cur != "" {
		t.Fatalf("stage %q never ended", cur)
	}
	if ticks[StageSchedule] != 0 || ticks[StageFinalize] != 0 {
		t.Fatalf("solver ticks in non-search stages: %v", ticks)
	}
	if ticks[StageOuter] == 0 {
		t.Fatalf("no solver ticks in the outer stage: %v", ticks)
	}
	if ticks[StageBanLoop] == 0 {
		t.Fatalf("no solver ticks in the ban loop (inner PSO): %v", ticks)
	}

	// The chain attempt of the reference stage is visible.
	found := false
	for _, e := range events {
		if strings.HasPrefix(e, "chain:"+StageReference+":") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no chain attempt event from the reference stage; events: %v", events)
	}

	// Stats mirror the pipeline: five stages in order, iteration counts
	// matching the observer's ticks, and stage durations accounting for
	// (almost) the whole runtime.
	if res.Stats == nil {
		t.Fatal("Result.Stats is nil")
	}
	if len(res.Stats.Stages) != len(StageNames) {
		t.Fatalf("got %d stage stats, want %d", len(res.Stats.Stages), len(StageNames))
	}
	for i, name := range StageNames {
		if res.Stats.Stages[i].Name != name {
			t.Fatalf("stats stage %d = %q, want %q", i, res.Stats.Stages[i].Name, name)
		}
	}
	for name, n := range ticks {
		if got := res.Stats.Stage(name).SolverIters; got != int64(n) {
			t.Fatalf("stage %s SolverIters = %d, observer saw %d ticks", name, got, n)
		}
	}
	if sum, total := res.Stats.StageSum(), res.Stats.Total; sum > total {
		t.Fatalf("StageSum %v exceeds Total %v", sum, total)
	}
}

// TestObserverDoesNotPerturbResults pins the tentpole invariant: a flow
// with an observer attached returns bit-identical results to one without.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	opts := Options{
		Outer: pso.Config{Particles: 4, Iterations: 6},
		Inner: pso.Config{Particles: 4, Iterations: 4},
		Seed:  99,
	}
	plain, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	opts.Observer = &flowstage.Recorder{}
	observed, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}
	if got, want := canonicalResult(observed), canonicalResult(plain); got != want {
		t.Errorf("observer changed the result:\n--- plain ---\n%s\n--- observed ---\n%s", want, got)
	}
}

// TestStatsStageSumCoversRuntime asserts the -stats acceptance criterion:
// the per-stage durations sum to within 5%% of the flow's total runtime.
// The flow outside its stages takes tens of microseconds, so the test runs
// mRNA_chip/IVD, a flow of about 50 ms: a GC or scheduler pause that lands
// between stages would have to last milliseconds to cost 5%, where on an
// IVD_chip flow of a few milliseconds a pause of a fraction of one did.
func TestStatsStageSumCoversRuntime(t *testing.T) {
	res, err := RunDFTFlow(chip.MRNA(), assay.IVD(), Options{
		Outer: pso.Config{Particles: 5, Iterations: 20},
		Inner: pso.Config{Particles: 5, Iterations: 8},
		Seed:  2018,
	})
	if err != nil {
		t.Fatalf("RunDFTFlow: %v", err)
	}
	sum, total := res.Stats.StageSum(), res.Stats.Total
	if total <= 0 {
		t.Fatalf("non-positive total runtime %v", total)
	}
	if ratio := float64(sum) / float64(total); ratio < 0.95 || ratio > 1.0 {
		t.Errorf("stage sum %v is %.1f%% of total %v, want within [95%%, 100%%]", sum, 100*ratio, total)
	}
	if res.Stats.Total != res.Runtime {
		t.Errorf("Stats.Total %v != Runtime %v", res.Stats.Total, res.Runtime)
	}
}
