package fault

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chip"
)

// TestProbeMatchesNoMemo pins the memo-free probe to both oracles. One
// Probe is reused across random chips of different sizes, each under its
// independent and a shared control, so buffers sized for a larger chip or
// left over from the previous vector must not leak into a verdict. On
// random path and cut vectors with 1-2 sources and meters and every fault
// kind:
//
//   - Certifies equals the seed's memo-free faultFreeOKNoMemo && detectsNoMemo;
//   - Cover from an empty bitset equals the vector's DetectionMatrix row
//     under the same control, and from a random bitset it ORs that row in.
//
// A warmed probe must not allocate.
func TestProbeMatchesNoMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var p Probe
	sizes := map[int]bool{}
	for trial := 0; trial < 20; trial++ {
		for _, ctrl := range testControls(chip.Random(rng)) {
			cc := ctrl.Chip()
			sizes[cc.Grid.Graph().NumNodes()] = true
			if err := p.Reset(cc, ctrl, nil); err != nil {
				t.Fatal(err)
			}
			sim := MustSimulator(cc, ctrl)
			faults := AllFaultsOfKinds(cc, StuckAt0, StuckAt1, Leakage)
			vectors := make([]Vector, 8)
			for i := range vectors {
				vectors[i] = randomVector(rng, cc)
			}
			m, err := NewEngine(sim, 1).DetectionMatrix(context.Background(), vectors, faults)
			if err != nil {
				t.Fatal(err)
			}
			covered := make([]uint64, m.Words())
			for i, v := range vectors {
				for _, f := range faults {
					want := sim.faultFreeOKNoMemo(v) && sim.detectsNoMemo(v, f)
					if got := p.Certifies(v, f); got != want {
						t.Fatalf("chip %s trial %d: Certifies(%v, %v) = %v, memo-free says %v", cc.Name, trial, v, f, got, want)
					}
				}
				clear(covered)
				p.Cover(v, faults, covered)
				row := m.Row(i)
				for w := range row {
					if covered[w] != row[w] {
						t.Fatalf("chip %s trial %d: Cover(%v) word %d = %#x, matrix row %#x", cc.Name, trial, v, w, covered[w], row[w])
					}
				}
				for w := range covered {
					covered[w] = rng.Uint64()
				}
				if r := len(faults) % 64; r != 0 {
					covered[len(covered)-1] &= 1<<uint(r) - 1
				}
				pre := append([]uint64(nil), covered...)
				p.Cover(v, faults, covered)
				for w := range row {
					if covered[w] != pre[w]|row[w] {
						t.Fatalf("chip %s trial %d: Cover(%v) over %#x gave %#x, want %#x", cc.Name, trial, v, pre[w], covered[w], pre[w]|row[w])
					}
				}
			}
			v := vectors[0]
			if allocs := testing.AllocsPerRun(10, func() {
				p.Certifies(v, faults[0])
				p.Cover(v, faults, covered)
			}); allocs != 0 {
				t.Fatalf("chip %s: warmed probe allocates %.1f times per Certifies+Cover", cc.Name, allocs)
			}
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("every chip has the same node count; reuse across sizes untested")
	}
}
