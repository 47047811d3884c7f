package core

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
)

// TestBestEvalSeenDeterministicTieBreak pins the selection rule that
// replaced the randomized map-order iteration: only a strictly better
// fitness displaces the incumbent, iteration follows the lexicographic
// content-key order, so ties resolve to the reference first and to the
// smallest key among cached configurations.
func TestBestEvalSeenDeterministicTieBreak(t *testing.T) {
	f := &flow{augCache: artifact.NewCache[*augEval](0, nil)}
	mk := func(key string, fit float64) *augEval {
		ev := &augEval{key: key, searched: true, bestFit: fit}
		f.augCache.Do(key, func() *augEval { return ev })
		return ev
	}
	ref := &augEval{key: "zz-ref", searched: true, bestFit: 100}
	b := mk("b-key", 100)
	a := mk("a-key", 100)
	// Three-way tie: the reference wins.
	for i := 0; i < 20; i++ {
		if got := f.bestEvalSeen(ref); got != ref {
			t.Fatalf("tie not broken in favour of the reference: got %q", got.key)
		}
	}
	// Two cached configurations tied strictly below the reference: the
	// lexicographically smallest key wins, on every call.
	a.bestFit, b.bestFit = 90, 90
	for i := 0; i < 20; i++ {
		if got := f.bestEvalSeen(ref); got != a {
			t.Fatalf("call %d: tie broke to %q, want %q", i, got.key, a.key)
		}
	}
	// A strictly better configuration always displaces the incumbent.
	b.bestFit = 80
	if got := f.bestEvalSeen(ref); got != b {
		t.Fatalf("strictly best configuration not selected: got %q", got.key)
	}
	// Unsearched entries never participate.
	c := mk("0-key", 1)
	c.searched = false
	if got := f.bestEvalSeen(ref); got != b {
		t.Fatalf("unsearched configuration selected: got %q", got.key)
	}
}

// TestFlowRepeatable is the regression test for the nondeterministic
// best-configuration selection: two runs of the full flow with identical
// options must return bit-identical results — in particular the same
// added edges and the same partner assignment, which the old map-order
// tie-break could flip between runs.
func TestFlowRepeatable(t *testing.T) {
	first, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalResult(second), canonicalResult(first); got != want {
		t.Errorf("flow result changed between identical runs\n--- second ---\n%s--- first ---\n%s", got, want)
	}
}

// TestDecodePartnersMoreDFTThanOriginals covers the overflow that used to
// spin forever: once every original control line is claimed, the collision
// walk cycles over all-used lines. Excess DFT valves must fall back to
// their own lines (-1) instead.
func TestDecodePartnersMoreDFTThanOriginals(t *testing.T) {
	c := chip.IVD()
	f := &flow{orig: c}
	nOrig := c.NumOriginalValves()
	x := make([]float64, nOrig+3)
	for i := range x {
		x[i] = float64(i%10) / 10
	}
	partners := f.decodePartners(c, x)
	seen := map[int]bool{}
	own := 0
	for _, p := range partners {
		if p == -1 {
			own++
			continue
		}
		if p < 0 || p >= nOrig {
			t.Fatalf("partner %d out of range in %v", p, partners)
		}
		if seen[p] {
			t.Fatalf("duplicate partner %d in %v", p, partners)
		}
		seen[p] = true
	}
	if own != 3 {
		t.Fatalf("expected exactly 3 own-line fallbacks, got %d in %v", own, partners)
	}
}

// TestDecodePartnersNoOriginalValves covers the degenerate chip with no
// original valves: MapToPartner collapses every position to slot 0, which
// must decode as an own line rather than indexing an empty used[] table.
func TestDecodePartnersNoOriginalValves(t *testing.T) {
	c := &chip.Chip{}
	f := &flow{orig: c}
	partners := f.decodePartners(c, []float64{0.1, 0.5, 0.99})
	for i, p := range partners {
		if p != -1 {
			t.Fatalf("partner[%d] = %d, want -1 on a chip with no original valves", i, p)
		}
	}
}

// TestFlowWorkerCountInvariance is the property test for the batch-
// synchronous engine: the full flow's Result must be bit-identical for
// 1, 2, 4 and 8 workers on every bundled design.
func TestFlowWorkerCountInvariance(t *testing.T) {
	combos := []struct {
		name  string
		chip  *chip.Chip
		assay *assay.Graph
		long  bool
	}{
		{"ivd_ivd", chip.IVD(), assay.IVD(), false},
		{"ra30_pid", chip.RA30(), assay.PID(), true},
		{"mrna_cpa", chip.MRNA(), assay.CPA(), true},
	}
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			if combo.long && testing.Short() {
				t.Skip("multi-second PSO flow")
			}
			var want string
			for _, workers := range []int{1, 2, 4, 8} {
				opts := smallOpts(11)
				opts.Workers = workers
				res, err := RunDFTFlow(combo.chip, combo.assay, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := canonicalResult(res)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("workers=%d diverged from workers=1\n--- got ---\n%s--- want ---\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestExplicitZeroOmegaPlumbsThrough pins the Options-level plumbing of
// the pso.Config zero-value fix: an explicit ω=0 (HasOmega set) must
// survive Options.withDefaults untouched so the engine can honour it
// instead of rewriting it to the 0.7 default. (The engine-level semantics
// are pinned by the pso package's own zero-coefficient tests.)
func TestExplicitZeroOmegaPlumbsThrough(t *testing.T) {
	opts := smallOpts(5)
	opts.Outer.Omega = 0
	opts.Outer.HasOmega = true
	out := opts.withDefaults().Outer
	if !out.HasOmega || out.Omega != 0 {
		t.Fatalf("explicit ω=0 flag lost through withDefaults: %+v", out)
	}
	if implicit := opts.withDefaults().Inner; implicit.HasOmega {
		t.Fatalf("implicit config grew a HasOmega flag: %+v", implicit)
	}
}

// TestSchedLivelocksWorkerInvariant: sched_livelocks counts scheduler
// runs ended by the livelock fast-forward, and the flow makes the same
// scheduler runs at any worker count. The paper-size IVD_chip/CPA flow at
// seed 2018 reaches such runs.
func TestSchedLivelocksWorkerInvariant(t *testing.T) {
	want := int64(-1)
	for _, workers := range []int{1, 2, 4} {
		res, err := RunDFTFlow(chip.IVD(), assay.CPA(), Options{Seed: 2018, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got int64
		for _, st := range res.Stats.Stages {
			got += st.Counter("sched_livelocks")
		}
		if got == 0 {
			t.Fatalf("workers=%d: no scheduler run ended by the livelock fast-forward", workers)
		}
		if want < 0 {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: sched_livelocks=%d, workers=1 counted %d", workers, got, want)
		}
	}
}
