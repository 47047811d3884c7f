package sched

import (
	"testing"

	"repro/internal/chip"
)

func TestTransportTimeScaling(t *testing.T) {
	c := lineChip(t)
	slow, err := Run(c, nil, miniAssay(), Params{TransportTimePerEdge: 10})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(c, nil, miniAssay(), Params{TransportTimePerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The M->D transport is 3 edges: 30 s vs 3 s difference must show in
	// the makespan (ops are sequential on the line chip).
	if slow.ExecutionTime-fast.ExecutionTime != 27 {
		t.Fatalf("transport scaling: slow %d, fast %d, want delta 27",
			slow.ExecutionTime, fast.ExecutionTime)
	}
}

func TestRunProgressReportsCompletion(t *testing.T) {
	eng := ivdEngine(t)
	g := eng.graph
	sch, done, err := eng.RunProgress(nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if done != g.NumOps() {
		t.Fatalf("done = %d, want %d", done, g.NumOps())
	}
	if sch == nil || sch.ExecutionTime <= 0 {
		t.Fatal("schedule missing")
	}
}

func TestRunProgressReportsPartialOnWedge(t *testing.T) {
	// The known-blocking sharing on the line chip wedges after the mix op.
	c := lineChip(t)
	e, ok := c.Grid.EdgeBetweenCoords(xy(2, 1), xy(2, 0))
	if !ok {
		t.Fatal("missing stub edge")
	}
	if _, err := c.AddDFTChannel(e); err != nil {
		t.Fatal(err)
	}
	ctrl, err := chip.SharedControl(c, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{MaxTime: 3600}
	eng, err := NewEngine(c, miniAssay(), p)
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := eng.RunProgress(ctrl, p)
	if err == nil {
		t.Fatal("expected wedge")
	}
	if done != 1 {
		t.Fatalf("done = %d, want 1 (the mix completes, the detect cannot be fed)", done)
	}
}

func TestMaxTimeGuard(t *testing.T) {
	// An absurd horizon of 1 s cannot fit a 15 s assay.
	c := lineChip(t)
	if _, err := Run(c, nil, miniAssay(), Params{MaxTime: 1}); err == nil {
		t.Fatal("MaxTime guard did not fire")
	}
	// The horizon is checked while operations remain, so a run whose last
	// operation completes just past MaxTime still succeeds.
	sch := mustRun(t, c, nil, miniAssay())
	if _, err := Run(c, nil, miniAssay(), Params{MaxTime: sch.ExecutionTime - 1}); err != nil {
		t.Fatalf("last completion past MaxTime rejected: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{}.withDefaults()
	if p.TransportTimePerEdge != 2 || p.MaxTime != 24*3600 || p.MaxReroutes != 6 {
		t.Fatalf("defaults: %+v", p)
	}
	// Explicit values survive.
	p = Params{TransportTimePerEdge: 7, MaxTime: 99, MaxReroutes: 3, WashTimePerEdge: 4}.withDefaults()
	if p.TransportTimePerEdge != 7 || p.MaxTime != 99 || p.MaxReroutes != 3 || p.WashTimePerEdge != 4 {
		t.Fatalf("explicit params lost: %+v", p)
	}
}

func TestExplicitZeroParams(t *testing.T) {
	// An intentional zero survives when its Has flag is set — the zero-value
	// ambiguity the flags exist to resolve. Zero transport time models
	// instantaneous moves (launch still charges the 1 s minimum beat); a
	// zero horizon rejects everything immediately.
	p := Params{HasTransportTimePerEdge: true, HasMaxTime: true}.withDefaults()
	if p.TransportTimePerEdge != 0 {
		t.Fatalf("explicit zero TransportTimePerEdge overridden to %d", p.TransportTimePerEdge)
	}
	if p.MaxTime != 0 {
		t.Fatalf("explicit zero MaxTime overridden to %d", p.MaxTime)
	}
	// Flags are recorded as set after defaulting, so a withDefaults round
	// trip is idempotent.
	q := p.withDefaults()
	if q.TransportTimePerEdge != p.TransportTimePerEdge || q.MaxTime != p.MaxTime ||
		!q.HasTransportTimePerEdge || !q.HasMaxTime {
		t.Fatalf("withDefaults not idempotent: %+v vs %+v", q, p)
	}

	// Negative values still mean "use the default" regardless of flags.
	p = Params{TransportTimePerEdge: -1, MaxTime: -1, HasTransportTimePerEdge: true, HasMaxTime: true}.withDefaults()
	if p.TransportTimePerEdge != 2 || p.MaxTime != 24*3600 {
		t.Fatalf("negative params not defaulted: %+v", p)
	}

	// A zero-transport-time schedule actually runs (every hop costs the
	// 1 s minimum) and is shorter than the 2 s/edge default.
	c := lineChip(t)
	fast, err := Run(c, nil, miniAssay(), Params{HasTransportTimePerEdge: true})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run(c, nil, miniAssay(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.ExecutionTime >= def.ExecutionTime {
		t.Fatalf("zero transport time (%d s) not faster than default (%d s)",
			fast.ExecutionTime, def.ExecutionTime)
	}

	// A zero horizon with the flag set must trip the MaxTime guard.
	if _, err := Run(c, nil, miniAssay(), Params{MaxTime: 0, HasMaxTime: true}); err == nil {
		t.Fatal("explicit zero MaxTime did not reject the schedule")
	}
}
