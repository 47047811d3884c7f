package artifact

import (
	"math/rand"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/pso"
	"repro/internal/sched"
)

// Golden digests of the bundled designs. These pin the canonical
// encoding: any change to the hash layout, the walked field set, or the
// Version constant must change these values — and must bump Version, so
// stored artifacts invalidate instead of aliasing.
var goldenChips = map[string]string{
	"IVD_chip":  "901eb058f78806c2c19d89ff5d5b84bde01df0dfc55b6abb5f09055d12943268",
	"RA30_chip": "3f2cc60770e11a76eab676f275939e8524effd4076b8bb74896ff9d0adf96ff8",
	"mRNA_chip": "2845ae06944a520f9a4c68420a5f793680159b3946bc28c6284aa2fe7c00b07a",
}

var goldenAssays = map[string]string{
	"IVD": "77cd61687dac0f02aecf456192f71a095dba5cda357cd427606aab06c2b526aa",
	"PID": "833b200bf29476f49f905a45f894a95a185d1f949d9ce3947f967350ce6ab307",
	"CPA": "c947288a15cda6c85eff2d6cf2663c5c2fe6d12a724fa59953b69e157e0d012d",
}

func TestGoldenDigests(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		if got := HashChip(c).Hex(); got != goldenChips[c.Name] {
			t.Errorf("HashChip(%s) = %s, want %s (encoding changed: bump Version and regenerate)",
				c.Name, got, goldenChips[c.Name])
		}
	}
	for _, a := range assay.Benchmarks() {
		if got := HashAssay(a).Hex(); got != goldenAssays[a.Name] {
			t.Errorf("HashAssay(%s) = %s, want %s (encoding changed: bump Version and regenerate)",
				a.Name, got, goldenAssays[a.Name])
		}
	}
}

// Digests must be stable across construction paths: a cloned chip hashes
// identically, and repeated hashing never varies.
func TestChipDigestStability(t *testing.T) {
	c := chip.IVD()
	d1 := HashChip(c)
	d2 := HashChip(c.Clone())
	d3 := HashChip(chip.IVD())
	if d1 != d2 || d1 != d3 {
		t.Fatalf("digest varies across identical constructions: %s %s %s", d1.Hex(), d2.Hex(), d3.Hex())
	}
}

// Any semantic mutation must change the chip digest.
func TestChipDigestMutations(t *testing.T) {
	base := HashChip(chip.IVD())
	mutations := map[string]func(*chip.Chip){
		"rename":         func(c *chip.Chip) { c.Name = "IVD_chip2" },
		"device-kind":    func(c *chip.Chip) { c.Devices[0].Kind++ },
		"device-node":    func(c *chip.Chip) { c.Devices[0].Node++ },
		"port-node":      func(c *chip.Chip) { c.Ports[0].Node = c.Ports[1].Node },
		"add-dft-valve":  func(c *chip.Chip) { _, _ = c.AddDFTChannel(0) },
		"grid-dimension": func(c *chip.Chip) { c.Grid.W++ },
	}
	for name, mutate := range mutations {
		c := chip.IVD()
		mutate(c)
		if HashChip(c) == base {
			t.Errorf("mutation %q did not change the digest", name)
		}
	}
}

// Assay digests must be independent of edge insertion order but
// sensitive to every semantic field.
func TestAssayDigestOrderIndependence(t *testing.T) {
	build := func(order []int) *assay.Graph {
		g := assay.New("perm")
		a := g.AddOp(assay.Mix, "a", 10)
		b := g.AddOp(assay.Mix, "b", 20)
		c := g.AddOp(assay.Detect, "c", 30)
		targets := []int{b, c, c}
		sources := []int{a, a, b}
		for _, i := range order {
			g.AddDep(sources[i], targets[i])
		}
		return g
	}
	base := HashAssay(build([]int{0, 1, 2}))
	for _, order := range [][]int{{2, 1, 0}, {1, 2, 0}, {0, 2, 1}} {
		if HashAssay(build(order)) != base {
			t.Errorf("edge insertion order %v changed the digest", order)
		}
	}
	g := build([]int{0, 1, 2})
	g.Ops()[0].Duration++
	if HashAssay(g) == base {
		t.Error("duration mutation did not change the digest")
	}
}

// Option-set digests: zero values and explicit defaults must collide
// (canonicalization), semantic fields must distinguish, execution-only
// fields must not.
func TestOptionDigestCanonicalization(t *testing.T) {
	if HashSchedParams(sched.Params{}) != HashSchedParams(sched.Params{}.Canonical()) {
		t.Error("zero sched.Params digests differently from its canonical form")
	}
	if HashPSOConfig(pso.Config{}) != HashPSOConfig(pso.Config{}.Canonical()) {
		t.Error("zero pso.Config digests differently from its canonical form")
	}
	a := pso.Config{Particles: 5, Iterations: 100}
	b := a
	b.Workers = 8
	b.OnIteration = func(int, float64) {}
	if HashPSOConfig(a) != HashPSOConfig(b) {
		t.Error("execution-only PSO fields changed the digest")
	}
	b = a
	b.Seed = 99
	if HashPSOConfig(a) == HashPSOConfig(b) {
		t.Error("PSO seed did not change the digest")
	}
	p := sched.Params{BanClosed: []int{3, 1, 2}}
	q := sched.Params{BanClosed: []int{2, 3, 1}}
	if HashSchedParams(p) != HashSchedParams(q) {
		t.Error("ban-set order changed the digest")
	}
	q = sched.Params{BanClosed: []int{2, 3}}
	if HashSchedParams(p) == HashSchedParams(q) {
		t.Error("ban-set contents did not change the digest")
	}
}

// sumStr digests a string payload under a kind tag.
func sumStr(kind, payload string) Digest {
	h := NewHasher(kind)
	h.Str(payload)
	return h.Sum()
}

// Kind and version tags must separate digests of identical payloads.
func TestDigestKindSeparation(t *testing.T) {
	if sumStr("a", "x") == sumStr("b", "x") {
		t.Error("kind tag does not separate digests")
	}
	h1 := NewHasher("k")
	h1.Str("ab")
	h1.Str("c")
	h2 := NewHasher("k")
	h2.Str("a")
	h2.Str("bc")
	if h1.Sum() == h2.Sum() {
		t.Error("adjacent strings alias across boundaries")
	}
}

// Randomized FPVA chips: digest equality must track semantic equality
// under the generator's determinism, and distinct parameters must never
// collide.
func TestFPVADigestFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[Digest]chip.FPVAParams{}
	for i := 0; i < 40; i++ {
		p := chip.FPVAParams{
			W:     4 + rng.Intn(4),
			H:     4 + rng.Intn(4),
			Ports: 2 + rng.Intn(3),
			Seed:  int64(rng.Intn(4)),
		}
		c1, err := chip.GenerateFPVA(p)
		if err != nil {
			continue
		}
		c2 := chip.MustGenerateFPVA(p)
		d1, d2 := HashChip(c1), HashChip(c2)
		if d1 != d2 {
			t.Fatalf("same params %+v digest differently", p)
		}
		if prev, dup := seen[d1]; dup && prev != p {
			t.Fatalf("collision: params %+v and %+v share digest %s", prev, p, d1.Hex())
		}
		seen[d1] = p
	}
}
