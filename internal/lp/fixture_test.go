package lp_test

// fixture_test.go pins the simplex kernel bit for bit. For a corpus of
// LPs — the paper's test-path ILPs under seeded random fixings, the
// test-cut set covers of the heuristically augmented chips, and the random
// LPs of this package's tests — testdata/lp_fixture.txt records each
// solve's status, objective bits, a hash of the solution's bits and its
// pivot and bound-flip counts. A kernel change that alters one pivot
// choice or one rounding fails here. Regenerate only for a deliberate
// change of the pivot sequence:
//
//	go test ./internal/lp -run TestLPFixture -update

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/lp"
	"repro/internal/testgen"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/lp_fixture.txt from the current kernel")

const fixturePath = "testdata/lp_fixture.txt"

type fixtureLP struct {
	id string
	p  *lp.Problem
	ov [][2]float64
}

// randomFixings fixes 1 to maxFix random variables of an all-binary
// problem to random values, like a branch-and-bound node some levels deep.
func randomFixings(rng *rand.Rand, p *lp.Problem, maxFix int) [][2]float64 {
	ov := p.DefaultOverrides()
	for k := 1 + rng.Intn(maxFix); k > 0; k-- {
		v := float64(rng.Intn(2))
		ov[rng.Intn(p.NumVars())] = [2]float64{v, v}
	}
	return ov
}

// fixtureCorpus builds the pinned LPs in a fixed order.
func fixtureCorpus(t testing.TB) []fixtureLP {
	var out []fixtureLP
	addFixed := func(id string, p *lp.Problem, seed int64, n, maxFix int) {
		out = append(out, fixtureLP{id: id + "/free", p: p})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			out = append(out, fixtureLP{id: fmt.Sprintf("%s/fix%d", id, i), p: p, ov: randomFixings(rng, p, maxFix)})
		}
	}
	for ci, mk := range []func() *chip.Chip{chip.IVD, chip.RA30, chip.MRNA} {
		c := mk()
		for _, nPaths := range []int{2, 3} {
			m, _ := testgen.PathILPModel(c, nPaths)
			addFixed(fmt.Sprintf("path/%s/P%d", c.Name, nPaths), m.P, int64(10*ci+nPaths), 50, 24)
		}
		aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
		if err != nil {
			t.Fatalf("augment %s: %v", c.Name, err)
		}
		m, err := testgen.CutCoverILPModel(aug.Chip, aug.Source, aug.Meter)
		if err != nil {
			t.Fatalf("cut cover %s: %v", c.Name, err)
		}
		addFixed("cut/"+c.Name, m.P, int64(100+ci), 30, 4)
	}
	for seed := int64(1); seed <= 200; seed++ {
		out = append(out, fixtureLP{id: fmt.Sprintf("mixed/%d", seed), p: lp.RandomMixedLP(rand.New(rand.NewSource(seed)))})
	}
	for seed := int64(1); seed <= 100; seed++ {
		p, ov := lp.RandomFixedBinaryLP(rand.New(rand.NewSource(seed)))
		out = append(out, fixtureLP{id: fmt.Sprintf("fixedbin/%d", seed), p: p, ov: ov})
	}
	for _, sz := range [][2]int{{20, 15}, {100, 60}, {300, 180}} {
		for seed := int64(42); seed < 45; seed++ {
			out = append(out, fixtureLP{id: fmt.Sprintf("rand/%dx%d/%d", sz[0], sz[1], seed), p: lp.RandomLP(sz[0], sz[1], seed)})
		}
	}
	for _, n := range []int{20, 60} {
		out = append(out, fixtureLP{id: fmt.Sprintf("branchy/%d", n), p: lp.Branchy(n)})
	}
	return out
}

// fixtureLine renders one solve: id, status, objective bits, FNV-1a of the
// solution's bits, pivots and bound flips.
func fixtureLine(id string, sol lp.Solution) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range sol.X {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s %s %016x %016x %d %d", id, sol.Status,
		math.Float64bits(sol.Obj), h.Sum64(), sol.Pivots, sol.Flips)
}

// TestLPFixture solves the corpus through one shared Tableau, so it also
// checks that a tableau reused across problems of different shapes keeps
// no state from the previous solve.
func TestLPFixture(t *testing.T) {
	corpus := fixtureCorpus(t)
	tab := lp.NewTableau()
	got := make([]string, len(corpus))
	for i, f := range corpus {
		sol, err := f.p.SolveTab(context.Background(), f.ov, tab)
		if err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		got[i] = fixtureLine(f.id, sol)
	}
	if *updateFixture {
		body := "# id status obj_bits x_bits_fnv64 pivots flips\n" + strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), fixturePath)
		return
	}
	f, err := os.Open(fixturePath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d entries, corpus has %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("entry %d:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d LPs differ from the fixture", bad, len(got))
	}
}

// A solve must not depend on what its Tableau solved before: load clears
// the matrix through the previous solve's bitmaps, so a stale entry would
// leak into the next problem. Solving the corpus, plus IVD's path ILP
// grown by subtour-style rows as lazy cuts grow it, through one Tableau in
// random orders must give the same bits as a fresh Tableau per LP.
func TestTableauReuseOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	corpus := fixtureCorpus(t)
	var cuts []lp.Constraint
	for k := 0; k < 12; k++ {
		m, _ := testgen.PathILPModel(chip.IVD(), 2)
		n := m.P.NumVars()
		var terms []lp.Term
		for size := 3 + rng.Intn(6); len(terms) < size; {
			terms = append(terms, lp.T(rng.Intn(n), 1))
		}
		cuts = append(cuts, lp.Constraint{Terms: terms, Rel: lp.LE, RHS: float64(len(terms) - 1)})
		for _, c := range cuts {
			m.P.AddConstraint(c)
		}
		for i := 0; i < 10; i++ {
			corpus = append(corpus, fixtureLP{id: fmt.Sprintf("grown/%d/fix%d", k, i), p: m.P, ov: randomFixings(rng, m.P, 24)})
		}
	}
	want := make([]string, len(corpus))
	for i, f := range corpus {
		sol, err := f.p.SolveTab(context.Background(), f.ov, lp.NewTableau())
		if err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		want[i] = fixtureLine(f.id, sol)
	}
	for trial := 0; trial < 2; trial++ {
		tab := lp.NewTableau()
		for _, i := range rng.Perm(len(corpus)) {
			sol, err := corpus[i].p.SolveTab(context.Background(), corpus[i].ov, tab)
			if err != nil {
				t.Fatalf("%s: %v", corpus[i].id, err)
			}
			if got := fixtureLine(corpus[i].id, sol); got != want[i] {
				t.Fatalf("order %d: reused tableau gives\n %s\nfresh tableau gives\n %s", trial, got, want[i])
			}
		}
	}
}
