package assay

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBenchmarkOpCounts(t *testing.T) {
	cases := []struct {
		g   *Graph
		ops int
		mix int
		det int
		dsp int
	}{
		{IVD(), 12, 6, 6, 0},
		{PID(), 38, 19, 19, 0},
		{CPA(), 55, 23, 8, 24},
	}
	for _, tc := range cases {
		if got := tc.g.NumOps(); got != tc.ops {
			t.Errorf("%s: ops = %d, want %d", tc.g.Name, got, tc.ops)
		}
		if got := tc.g.CountKind(Mix); got != tc.mix {
			t.Errorf("%s: mixes = %d, want %d", tc.g.Name, got, tc.mix)
		}
		if got := tc.g.CountKind(Detect); got != tc.det {
			t.Errorf("%s: detects = %d, want %d", tc.g.Name, got, tc.det)
		}
		if got := tc.g.CountKind(Dispense); got != tc.dsp {
			t.Errorf("%s: dispenses = %d, want %d", tc.g.Name, got, tc.dsp)
		}
	}
}

func TestBenchmarksValidate(t *testing.T) {
	for _, g := range Benchmarks() {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	for _, name := range []string{"IVD", "PID", "CPA", "ivd", "pid", "cpa"} {
		if _, ok := BenchmarkByName(name); !ok {
			t.Errorf("BenchmarkByName(%q) failed", name)
		}
	}
	if _, ok := BenchmarkByName("bogus"); ok {
		t.Error("unknown assay must not resolve")
	}
}

func TestIVDStructure(t *testing.T) {
	g := IVD()
	roots, leaves := 0, 0
	for _, op := range g.Ops() {
		if len(g.Preds(op.ID)) == 0 {
			roots++
		}
		if len(g.Succs(op.ID)) == 0 {
			leaves++
			if op.Kind != Detect {
				t.Fatalf("IVD leaf %d is %v, want detect", op.ID, op.Kind)
			}
		}
	}
	if roots != 4 {
		t.Fatalf("IVD roots = %d, want 4 first-stage mixes", roots)
	}
	if leaves != 6 {
		t.Fatalf("IVD leaves = %d, want 6 detects", leaves)
	}
}

func TestPIDIsChain(t *testing.T) {
	g := PID()
	// The dilution chain: exactly one root mix, and each mix has at most
	// one mix successor.
	roots := 0
	for _, op := range g.Ops() {
		if len(g.Preds(op.ID)) == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("PID roots = %d, want single chain head", roots)
	}
	for _, op := range g.Ops() {
		if op.Kind != Mix {
			continue
		}
		mixSuccs := 0
		for _, s := range g.Succs(op.ID) {
			if g.Op(s).Kind == Mix {
				mixSuccs++
			}
		}
		if mixSuccs > 1 {
			t.Fatalf("PID mix %d has %d mix successors", op.ID, mixSuccs)
		}
	}
	// Critical path must be at least the 19 chained mixes.
	if cp := g.CriticalPath(); cp < 19*DefaultMixTime {
		t.Fatalf("PID critical path %d < %d", cp, 19*DefaultMixTime)
	}
}

func TestCPADispensesAreRoots(t *testing.T) {
	g := CPA()
	leaves := 0
	for _, op := range g.Ops() {
		if op.Kind == Dispense && len(g.Preds(op.ID)) != 0 {
			t.Fatalf("dispense %q has predecessors", op.Name)
		}
		if len(g.Succs(op.ID)) == 0 {
			leaves++
		}
	}
	if leaves != 8 {
		t.Fatalf("CPA leaves = %d, want 8 reads", leaves)
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	g := CPA()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.NumOps())
	for i, id := range order {
		pos[id] = i
	}
	for _, op := range g.Ops() {
		for _, s := range g.Succs(op.ID) {
			if pos[op.ID] >= pos[s] {
				t.Fatalf("topo order violates %d -> %d", op.ID, s)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New("cyclic")
	a := g.AddOp(Mix, "a", 10)
	b := g.AddOp(Mix, "b", 10)
	g.AddDep(a, b)
	g.AddDep(b, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle must be detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must reject cyclic graph")
	}
}

func TestValidateRejectsDetectWithSuccessor(t *testing.T) {
	g := New("bad")
	d := g.AddOp(Detect, "d", 10)
	m := g.AddOp(Mix, "m", 10)
	g.AddDep(d, m)
	if err := g.Validate(); err == nil {
		t.Fatal("detect with successor must be rejected")
	}
}

func TestValidateRejectsDispenseWithPred(t *testing.T) {
	g := New("bad")
	m := g.AddOp(Mix, "m", 10)
	d := g.AddOp(Dispense, "d", 5)
	g.AddDep(m, d)
	if err := g.Validate(); err == nil {
		t.Fatal("dispense with predecessor must be rejected")
	}
}

func TestValidateRejectsEmpty(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("empty graph must be rejected")
	}
}

func TestCriticalPathSimple(t *testing.T) {
	g := New("cp")
	a := g.AddOp(Mix, "a", 10)
	b := g.AddOp(Mix, "b", 20)
	c := g.AddOp(Detect, "c", 5)
	g.AddDep(a, b)
	g.AddDep(b, c)
	if cp := g.CriticalPath(); cp != 35 {
		t.Fatalf("critical path = %d, want 35", cp)
	}
}

func TestStringMentionsCounts(t *testing.T) {
	s := IVD().String()
	if !strings.Contains(s, "12 ops") || !strings.Contains(s, "6 mix") {
		t.Fatalf("String() = %q", s)
	}
}

func TestOpKindString(t *testing.T) {
	if Dispense.String() != "dispense" || Mix.String() != "mix" || Detect.String() != "detect" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(9).String() != "unknown" {
		t.Fatal("unknown OpKind string")
	}
}

// Property: random layered DAGs always topo-sort, and the critical path is
// at least the maximum single op duration and at most the duration sum.
func TestCriticalPathBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New("rand")
		nLayers := 2 + rng.Intn(4)
		var prev []int
		sum, maxDur := 0, 0
		for l := 0; l < nLayers; l++ {
			width := 1 + rng.Intn(4)
			var cur []int
			for w := 0; w < width; w++ {
				d := 1 + rng.Intn(50)
				sum += d
				if d > maxDur {
					maxDur = d
				}
				id := g.AddOp(Mix, "m", d)
				cur = append(cur, id)
				for _, p := range prev {
					if rng.Intn(2) == 0 {
						g.AddDep(p, id)
					}
				}
			}
			prev = cur
		}
		if _, err := g.TopoOrder(); err != nil {
			return false
		}
		cp := g.CriticalPath()
		return cp >= maxDur && cp <= sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
