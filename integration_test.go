package repro_test

// Integration tests: the complete pipeline through the public API plus the
// extension subsystems, end to end.

import (
	"bytes"
	"testing"

	"repro/dft"
	"repro/internal/fault"
	"repro/internal/loader"
	"repro/internal/pressure"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/sched"
)

// TestEndToEndPipeline runs flow -> report -> render -> control synthesis
// -> quantitative pressure check on one benchmark, asserting the pieces
// agree with each other.
func TestEndToEndPipeline(t *testing.T) {
	res, err := dft.Run(dft.ChipRA30(), dft.AssayIVD(), benchOpts(10))
	if err != nil {
		t.Fatal(err)
	}

	// Report round-trips and validates.
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	doc, err := report.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.Execution.DFTPSO != res.ExecPSO {
		t.Fatal("report execution mismatch")
	}

	// Rendering shows the DFT channels.
	pic := render.Chip(res.Aug.Chip)
	if len(pic) == 0 {
		t.Fatal("empty rendering")
	}

	// Control layer synthesizes; sharing needs no more ports than the
	// original valve count (plus any partial-sharing own lines).
	layer, err := dft.SynthesizeControl(res.Aug.Chip, res.Control, dft.ControlParams{})
	if err != nil {
		t.Fatal(err)
	}
	if s := layer.Stats(); s.UnroutedLines == 0 && s.Ports != res.Control.NumLines() {
		t.Fatalf("control ports %d != lines %d", s.Ports, res.Control.NumLines())
	}

	// Quantitative pressure agrees with every path vector: the meter reads
	// flow on a good chip and loses it under a stuck-at-0 fault on the
	// path. The warm sparse solver chain must agree with the dense
	// baseline on every state along the way.
	src := res.Aug.Chip.Ports[res.Aug.Source].Node
	mtr := res.Aug.Chip.Ports[res.Aug.Meter].Node
	eng, err := pressure.NewEngine(res.Aug.Chip, src, mtr, pressure.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	solver := eng.NewSolver()
	crossCheck := func(cond []float64) pressure.Result {
		t.Helper()
		sparse, err := solver.Solve(cond)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := pressure.SolveBaseline(res.Aug.Chip, cond, src, mtr)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.MeterFlow - dense.MeterFlow; d > 1e-9 || d < -1e-9 {
			t.Fatalf("engine flow %g != baseline %g", sparse.MeterFlow, dense.MeterFlow)
		}
		if sparse.Reads(pressure.Params{}) != dense.Reads(pressure.Params{}) {
			t.Fatal("engine and baseline disagree on the meter decision")
		}
		return sparse
	}
	for _, vec := range res.PathVectors {
		open := make([]bool, res.Aug.Chip.NumValves())
		res.Control.ExpandInto(vec.Valves, false, open, make([]bool, res.Control.NumLines()))
		good := crossCheck(pressure.Conductances(res.Aug.Chip, open, pressure.Params{}, nil))
		if !good.Reads(pressure.Params{}) {
			t.Fatalf("quantitative model sees no flow for path vector %v", vec.Valves)
		}
		bad := crossCheck(pressure.Conductances(res.Aug.Chip, open, pressure.Params{},
			map[int]pressure.Defect{vec.Valves[0]: pressure.StuckClosed}))
		if bad.MeterFlow >= good.MeterFlow {
			t.Fatal("stuck-at-0 on the path did not reduce flow")
		}
	}
	if st := eng.Stats(); st.Solves != int64(2*len(res.PathVectors)) {
		t.Fatalf("engine solve count %d, want %d", st.Solves, 2*len(res.PathVectors))
	}
}

// TestLoadedDesignFullFlow feeds a JSON design through the whole flow.
func TestLoadedDesignFullFlow(t *testing.T) {
	chipJSON := `{
	  "name": "itest_chip", "grid_w": 7, "grid_h": 5,
	  "devices": [
	    {"name": "M1", "kind": "mixer", "x": 1, "y": 1},
	    {"name": "M2", "kind": "mixer", "x": 4, "y": 1},
	    {"name": "D1", "kind": "detector", "x": 4, "y": 3}
	  ],
	  "ports": [
	    {"name": "P0", "x": 0, "y": 1},
	    {"name": "P1", "x": 6, "y": 1},
	    {"name": "P2", "x": 4, "y": 4}
	  ],
	  "channels": [
	    [[0,1],[1,1]],
	    [[1,1],[2,1],[3,1],[4,1]],
	    [[4,1],[5,1],[6,1]],
	    [[4,1],[4,2],[4,3]],
	    [[4,3],[4,4]],
	    [[1,1],[1,2],[2,2],[3,2],[4,2]]
	  ]
	}`
	assayJSON := `{
	  "name": "itest_assay",
	  "ops": [
	    {"name": "mixA", "kind": "mix", "duration": 30},
	    {"name": "mixB", "kind": "mix", "duration": 30},
	    {"name": "combine", "kind": "mix", "duration": 40},
	    {"name": "read", "kind": "detect", "duration": 20}
	  ],
	  "deps": [[0,2],[1,2],[2,3]]
	}`
	c, err := loader.ReadChip(bytes.NewReader([]byte(chipJSON)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := loader.ReadAssay(bytes.NewReader([]byte(assayJSON)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dft.Run(c, a, benchOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	sim := fault.MustSimulator(res.Aug.Chip, res.Control)
	cov := sim.EvaluateCoverage(append(res.PathVectors, res.CutVectors...), fault.AllFaults(res.Aug.Chip))
	if !cov.Full() {
		t.Fatalf("coverage %v", cov)
	}
	sch, err := sched.Run(res.Aug.Chip, res.Control, a, sched.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateSchedule(res.Aug.Chip, a, sch); err != nil {
		t.Fatal(err)
	}
}

// TestWashedFlowStillTestable: enabling the wash model changes schedules
// but must not affect testability artifacts.
func TestWashedFlowStillTestable(t *testing.T) {
	opts := benchOpts(6)
	opts.Sched = dft.SchedParams{WashTimePerEdge: 5}
	res, err := dft.Run(dft.ChipIVD(), dft.AssayPID(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := dft.NewSimulator(res.Aug.Chip, res.Control)
	if err != nil {
		t.Fatal(err)
	}
	cov := sim.EvaluateCoverage(append(res.PathVectors, res.CutVectors...), dft.AllFaults(res.Aug.Chip))
	if !cov.Full() {
		t.Fatalf("coverage %v", cov)
	}
}
