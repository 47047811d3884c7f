package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

// designs returns the three bundled (chip, assay) pairs the paper evaluates.
func designs() []struct {
	name  string
	chip  *chip.Chip
	graph *assay.Graph
} {
	return []struct {
		name  string
		chip  *chip.Chip
		graph *assay.Graph
	}{
		{"IVD", chip.IVD(), assay.IVD()},
		{"RA30", chip.RA30(), assay.PID()},
		{"mRNA", chip.MRNA(), assay.CPA()},
	}
}

// augmented clones c and adds n DFT channels on the first free edges, so
// SharedControl has test valves to pair.
func augmented(t *testing.T, c *chip.Chip, n int) *chip.Chip {
	t.Helper()
	out := c.Clone()
	added := 0
	for e := 0; e < out.Grid.NumEdges() && added < n; e++ {
		if _, occ := out.ValveOnEdge(e); occ {
			continue
		}
		if _, err := out.AddDFTChannel(e); err != nil {
			t.Fatalf("AddDFTChannel: %v", err)
		}
		added++
	}
	if added < n {
		t.Fatalf("only %d of %d DFT channels fit", added, n)
	}
	return out
}

// randControl pairs each DFT valve with a random distinct original valve
// (or leaves it on a fresh line).
func randControl(t *testing.T, rng *rand.Rand, c *chip.Chip) *chip.Control {
	t.Helper()
	nOrig := c.NumOriginalValves()
	partner := make([]int, c.NumDFTValves())
	used := make(map[int]bool)
	for i := range partner {
		partner[i] = -1
		if rng.Intn(2) == 0 {
			p := rng.Intn(nOrig)
			if !used[p] {
				used[p] = true
				partner[i] = p
			}
		}
	}
	ctrl, err := chip.SharedControl(c, partner)
	if err != nil {
		t.Fatalf("SharedControl(%v): %v", partner, err)
	}
	return ctrl
}

// randBans draws up to maxN distinct valves from the chip's range.
func randBans(rng *rand.Rand, c *chip.Chip, maxN int) []int {
	n := rng.Intn(maxN + 1)
	out := make([]int, 0, n)
	seen := make(map[int]bool)
	for len(out) < n {
		v := rng.Intn(c.NumValves())
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// checkCase runs one case through the engine and fails unless it matches
// the fixture: same error text, progress count and schedule. A second run
// on the same warm engine must reproduce the schedule (pool reuse and
// candidate-cache hits must not perturb anything).
func checkCase(t *testing.T, c schedCase) {
	t.Helper()
	sch, done, err := c.eng.RunProgress(c.ctrl, c.p)
	checkFixture(t, fixtureLine(c.id, sch, done, err))
	again, againDone, againErr := c.eng.RunProgress(c.ctrl, c.p)
	if againDone != done || fmt.Sprint(againErr) != fmt.Sprint(err) || !reflect.DeepEqual(again, sch) {
		t.Fatalf("%s: second engine run diverged from the first", c.id)
	}
}

// designCases draws one design's inputs: independent control, with and
// without the wash model, then randomized shared control on the augmented
// chip, then randomized ban sets (stuck-closed and stuck-open valves).
// Each case gets its own engine.
func designCases(t *testing.T, name string, c *chip.Chip, g *assay.Graph) []schedCase {
	rng := rand.New(rand.NewSource(2018 ^ int64(len(name))))
	aug := augmented(t, c, 4)
	prefix := "designs/" + name
	out := []schedCase{
		newCase(t, prefix+"/indep", c, g, nil, Params{}),
		newCase(t, prefix+"/wash", c, g, nil, Params{WashTimePerEdge: 3}),
	}
	for trial := 0; trial < 4; trial++ {
		ctrl := randControl(t, rng, aug)
		p := Params{}
		if trial%2 == 1 {
			p.WashTimePerEdge = 2
		}
		out = append(out, newCase(t, fmt.Sprintf("%s/shared%d", prefix, trial), aug, g, ctrl, p))
	}
	for trial := 0; trial < 4; trial++ {
		p := Params{
			BanClosed: randBans(rng, aug, 2),
			BanOpen:   randBans(rng, aug, 2),
		}
		ctrl := randControl(t, rng, aug)
		out = append(out, newCase(t, fmt.Sprintf("%s/ban%d", prefix, trial), aug, g, ctrl, p))
	}
	return out
}

// TestEngineMatchesBaselineDesigns checks the engine against the seed
// scheduler's recorded schedules on all bundled designs under independent
// and randomized shared control, with and without the wash model, and
// under randomized ban sets, schedulable or not.
func TestEngineMatchesBaselineDesigns(t *testing.T) {
	for _, d := range designs() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			for _, c := range designCases(t, d.name, d.chip, d.graph) {
				checkCase(t, c)
			}
		})
	}
}

// TestEngineRejectsForeignBans: an engine is built for one ban-set; runs
// naming a different set must fail loudly instead of silently using the
// baked-in routing state.
func TestEngineRejectsForeignBans(t *testing.T) {
	c, g := chip.IVD(), assay.IVD()
	eng, err := NewEngine(c, g, Params{BanClosed: []int{3}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Run(nil, Params{BanClosed: []int{3}}); err != nil {
		t.Fatalf("matching ban-set rejected: %v", err)
	}
	if _, err := eng.Run(nil, Params{BanClosed: []int{4}}); err == nil {
		t.Fatalf("foreign ban-set accepted")
	}
	if _, err := eng.Run(nil, Params{}); err == nil {
		t.Fatalf("empty ban-set accepted by banned engine")
	}
	// Duplicates and out-of-range entries canonicalize away.
	if _, err := eng.Run(nil, Params{BanClosed: []int{3, 3, -7, c.NumValves() + 5}}); err != nil {
		t.Fatalf("canonically equal ban-set rejected: %v", err)
	}
}

// TestEngineRejectsForeignControl mirrors the package-level chip check.
func TestEngineRejectsForeignControl(t *testing.T) {
	eng, err := NewEngine(chip.IVD(), assay.IVD(), Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	other := chip.IVD()
	if _, err := eng.Run(chip.IndependentControl(other), Params{}); err == nil {
		t.Fatalf("control for a different chip accepted")
	}
}

// concurrentCases draws six random sharing schemes on the augmented RA30
// chip, all scheduled through one engine.
func concurrentCases(t *testing.T) (*Engine, []schedCase) {
	aug := augmented(t, chip.RA30(), 4)
	eng, err := NewEngine(aug, assay.PID(), Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	out := make([]schedCase, 6)
	for i := range out {
		out[i] = schedCase{id: fmt.Sprintf("concurrent/RA30/ctrl%d", i), eng: eng, ctrl: randControl(t, rng, aug)}
	}
	return eng, out
}

// TestEngineConcurrentRuns shares one engine across goroutines evaluating
// different control assignments — the PSO fitness-worker pattern. Run with
// -race in CI; every result must equal the serial run's, which matches the
// fixture.
func TestEngineConcurrentRuns(t *testing.T) {
	eng, cases := concurrentCases(t)
	m := NewMetrics()
	eng.SetMetrics(m)

	want := make([]*Schedule, len(cases))
	for i, c := range cases {
		sch, done, err := eng.RunProgress(c.ctrl, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		checkFixture(t, fixtureLine(c.id, sch, done, err))
		want[i] = sch
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*4)
	for rep := 0; rep < 4; rep++ {
		for i := range cases {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sch, err := eng.Run(cases[i].ctrl, cases[i].p)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", cases[i].id, err)
					return
				}
				if !reflect.DeepEqual(sch, want[i]) {
					errs <- fmt.Errorf("%s: concurrent schedule diverged", cases[i].id)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := m.Snapshot()
	if snap.EngineBuilds != 1 {
		t.Errorf("EngineBuilds = %d, want 1", snap.EngineBuilds)
	}
	if snap.WarmRuns != int64(len(cases)*5) {
		t.Errorf("WarmRuns = %d, want %d", snap.WarmRuns, len(cases)*5)
	}
}

// TestEngineCandidateCacheCounts: on a pristine chip the very first
// transports of a second run are served from the candidate cache.
func TestEngineCandidateCacheCounts(t *testing.T) {
	c, g := chip.IVD(), assay.IVD()
	eng, err := NewEngine(c, g, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	m := NewMetrics()
	eng.SetMetrics(m)
	if _, err := eng.Run(nil, Params{}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	first := m.Snapshot()
	if _, err := eng.Run(nil, Params{}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	second := m.Snapshot().Sub(first)
	if second.CandidateHits == 0 {
		t.Fatalf("second run on a warm engine recorded no candidate hits")
	}
}
