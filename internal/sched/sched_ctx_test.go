package sched

import (
	"context"
	"errors"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

// ivdEngine builds a cold engine for the IVD assay on the IVD chip.
func ivdEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(chip.IVD(), assay.IVD(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRunCtxPreCancelled(t *testing.T) {
	_, err := ivdEngine(t).RunCtx(nil1(), nil, Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func nil1() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestRunProgressCtxReportsPartialProgress(t *testing.T) {
	eng := ivdEngine(t)
	g := eng.graph
	sch, done, err := eng.RunProgress(nil, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if done != g.NumOps() || sch == nil {
		t.Fatalf("reference run: %d/%d ops", done, g.NumOps())
	}
	_, doneC, err := eng.RunProgressCtx(nil1(), nil, Params{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if doneC >= done {
		t.Fatalf("cancelled run completed %d ops, reference %d; want a strict early stop", doneC, done)
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	c := chip.IVD()
	g := assay.IVD()
	a, errA := Run(c, nil, g, Params{})
	eng, err := NewEngine(c, g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, errB := eng.RunCtx(context.Background(), nil, Params{})
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if a.ExecutionTime != b.ExecutionTime {
		t.Fatalf("Run time %d, RunCtx time %d", a.ExecutionTime, b.ExecutionTime)
	}
}
