package control

import (
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/grid"
	"repro/internal/testgen"
)

func TestSynthesizeIndependentIVD(t *testing.T) {
	c := chip.IVD()
	layer, err := Synthesize(c, chip.IndependentControl(c), Params{})
	if err != nil {
		t.Fatal(err)
	}
	s := layer.Stats()
	if s.UnroutedLines != 0 {
		t.Fatalf("%d unrouted lines on the IVD chip: %v", s.UnroutedLines, layer.Unroutable)
	}
	if s.Lines != c.NumValves() {
		t.Fatalf("lines = %d, want %d", s.Lines, c.NumValves())
	}
	if s.Ports != c.NumValves() {
		t.Fatalf("ports = %d, want one per line", s.Ports)
	}
	if s.MaxSkew != 0 {
		t.Fatalf("independent lines have one tap each; skew must be 0, got %d", s.MaxSkew)
	}
	if s.TotalLength == 0 || s.MaxDelay == 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
}

func TestRoutesDoNotOverlap(t *testing.T) {
	c := chip.RA30()
	layer, err := Synthesize(c, chip.IndependentControl(c), Params{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, r := range layer.Routes {
		for _, e := range r.Edges {
			if prev, ok := seen[e]; ok && prev != r.Line {
				t.Fatalf("edge %d used by lines %d and %d", e, prev, r.Line)
			}
			seen[e] = r.Line
		}
	}
}

func TestPortsAreUniqueBoundaryNodes(t *testing.T) {
	c := chip.IVD()
	layer, err := Synthesize(c, chip.IndependentControl(c), Params{})
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(layer.GridW, layer.GridH)
	used := map[int]bool{}
	for _, r := range layer.Routes {
		if used[r.PortNode] {
			t.Fatalf("port node %d reused", r.PortNode)
		}
		used[r.PortNode] = true
		if !g.OnBoundary(g.CoordOf(r.PortNode)) {
			t.Fatalf("port node %d not on control-grid boundary", r.PortNode)
		}
	}
}

func TestEveryValveTapped(t *testing.T) {
	c := chip.MRNA()
	layer, err := Synthesize(c, chip.IndependentControl(c), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(layer.Unroutable) > 0 {
		t.Skipf("mRNA congestion left %d lines unrouted (acceptable)", len(layer.Unroutable))
	}
	tapped := map[int]bool{}
	for _, r := range layer.Routes {
		for _, tap := range r.Valves {
			tapped[tap.Valve] = true
			if tap.Delay < 0 {
				t.Fatalf("valve %d has negative delay", tap.Valve)
			}
		}
	}
	for v := 0; v < c.NumValves(); v++ {
		if !tapped[v] {
			t.Fatalf("valve %d has no control tap", v)
		}
	}
}

func TestSharingSavesPortsOnDFTChip(t *testing.T) {
	c := chip.IVD()
	aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	partners := make([]int, aug.Chip.NumDFTValves())
	for i := range partners {
		partners[i] = i
	}
	ctrl, err := chip.SharedControl(aug.Chip, partners)
	if err != nil {
		t.Fatal(err)
	}
	sharedStats, indepStats, err := CompareSharingOverhead(aug.Chip, ctrl, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if sharedStats.UnroutedLines > 0 || indepStats.UnroutedLines > 0 {
		t.Skip("congestion; port comparison not meaningful")
	}
	if sharedStats.Ports != aug.Chip.NumOriginalValves() {
		t.Fatalf("shared control needs %d ports, want %d (the original count)",
			sharedStats.Ports, aug.Chip.NumOriginalValves())
	}
	if indepStats.Ports != aug.Chip.NumValves() {
		t.Fatalf("independent control needs %d ports, want %d", indepStats.Ports, aug.Chip.NumValves())
	}
	if indepStats.Ports <= sharedStats.Ports {
		t.Fatal("sharing must save control ports")
	}
	// Shared lines reach two valves, so skew becomes visible.
	if sharedStats.MaxSkew < 0 {
		t.Fatal("negative skew")
	}
}

func TestStatsString(t *testing.T) {
	c := chip.IVD()
	layer, err := Synthesize(c, chip.IndependentControl(c), Params{})
	if err != nil {
		t.Fatal(err)
	}
	s := layer.Stats().String()
	if !strings.Contains(s, "control layer") || !strings.Contains(s, "lines") {
		t.Fatalf("Stats.String = %q", s)
	}
}

func TestWrongChipRejected(t *testing.T) {
	a, b := chip.IVD(), chip.IVD()
	if _, err := Synthesize(a, chip.IndependentControl(b), Params{}); err == nil {
		t.Fatal("control assignment for another chip must be rejected")
	}
}

func TestDelayScalesWithParams(t *testing.T) {
	c := chip.IVD()
	l1, err := Synthesize(c, chip.IndependentControl(c), Params{DelayPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	l10, err := Synthesize(c, chip.IndependentControl(c), Params{DelayPerEdge: 10})
	if err != nil {
		t.Fatal(err)
	}
	if l10.Stats().MaxDelay != 10*l1.Stats().MaxDelay {
		t.Fatalf("delay scaling broken: %d vs %d", l10.Stats().MaxDelay, l1.Stats().MaxDelay)
	}
}
