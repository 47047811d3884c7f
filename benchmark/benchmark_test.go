package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

// stallEnv makes a test-binary pass child hang instead of running its
// ops, as a stalled LP would.
const stallEnv = "DFTBENCH_TEST_STALL"

// TestMain lets the test binary serve as the pass child, as the benchmark
// binary does when it re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if os.Getenv(stallEnv) != "" {
			os.Exit(stallingChild())
		}
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// stallingChild answers set-up probes like a pass child and never
// finishes a pass.
func stallingChild() int {
	var spec passSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		return 1
	}
	if !spec.SetupOnly {
		time.Sleep(time.Hour)
	}
	res, err := runPass(spec)
	if err != nil {
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// TestKilledPassStillReports stalls every pass past its kill limit and
// checks that the run still yields a result line, with the pass's ops
// failed and the metrics it never measured left out.
func TestKilledPassStillReports(t *testing.T) {
	t.Setenv(stallEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &runner{exe: exe, work: dir, traceDir: dir, golden: golden, log: io.Discard, probe: newMemProbe()}
	w := &workload{
		name:       "stall",
		expectPass: 10 * time.Millisecond,
		ops: func(int64, bool) []opSpec {
			return []opSpec{flowOp("IVD_chip", "IVD", tableSeed, 5, false)}
		},
	}
	rep, err := r.runWorkload(w, runConfig{seed: tableSeed, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	line, err := contractLine(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if parsed.Correct || parsed.Attempted != 1 || parsed.Failed != 1 {
		t.Errorf("result line %s, want one attempted op, failed, correct false", line)
	}
	if _, ok := parsed.Metrics["setup_s"]; !ok {
		t.Errorf("result line %s has no setup_s, which the set-up probes measured", line)
	}
	if _, ok := parsed.Metrics["wall_s"]; ok {
		t.Errorf("result line %s has a wall_s, which no pass measured", line)
	}
}

// TestQuickSmoke runs one untraced and one traced pass of every
// workload's tiny ops and checks that no op fails and that every metric
// is emitted with its unit.
func TestQuickSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented ops outrun their deadlines; TestSpanRecorderOnConcurrentFlow covers the observer")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "quick.json")
	start := time.Now()
	code := run([]string{"-quick", "-trace", "1", "-work", filepath.Join(dir, "work"),
		"-trace-dir", filepath.Join(dir, "trace"), "-out", out})
	t.Logf("quick run took %v", time.Since(start))
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	for _, wr := range rep.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 || len(wr.NoGolden) != 0 {
			t.Errorf("%s: %d/%d ops failed, no golden for %v: %v", wr.Name, wr.Failed, wr.Attempted, wr.NoGolden, wr.Failures)
		}
		if wr.Passes != 2 || wr.TracedPasses != 1 {
			t.Errorf("%s: %d passes, %d traced; want 2 and 1", wr.Name, wr.Passes, wr.TracedPasses)
		}
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.name]; s.N == 0 || s.Unit != d.unit || s.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", wr.Name, d.name, s, d.unit)
			}
		}
		for _, d := range perLayer() {
			if s, ok := wr.Layers[d.name]; !ok || s.Unit != d.unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", wr.Name, d.name, s, ok, d.unit)
			}
		}
		for _, traced := range []bool{false, true} {
			line, err := contractLine(wr, traced)
			if err != nil {
				t.Errorf("%s: %v", wr.Name, err)
				continue
			}
			var parsed struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer())
			}
			if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || parsed.Attempted == 0 || len(parsed.Metrics) != want {
				t.Errorf("%s: result line %s (err %v), want %d metrics", wr.Name, line, err, want)
			}
		}
		if wr.Name != "flow_ivd_pid" {
			continue
		}
		for _, name := range []string{"hit_ms_p50", "hit_ms_p90"} {
			if s := wr.EndToEnd[name]; s.N == 0 || s.Median <= 0 || s.Unit != "ms" {
				t.Errorf("flow_ivd_pid: %s = %+v", name, s)
			}
		}
	}
}

// TestSpanRecorderOnConcurrentFlow attaches the recorder to a flow whose
// PSO workers emit events from two goroutines (run it with -race).
func TestSpanRecorderOnConcurrentFlow(t *testing.T) {
	op := flowOp("IVD_chip", "IVD", tableSeed, 5, false)
	op.Timeout = time.Minute
	p, err := prepare(op)
	if err != nil {
		t.Fatal(err)
	}
	rec := newSpanRecorder()
	opts := p.flowOptions(nil, rec)
	opts.Workers = 2
	rec.beginOp(op.Key)
	res, err := core.RunDFTFlowCtx(context.Background(), p.chip, p.assay, opts)
	rec.endOp()
	if err != nil {
		t.Fatal(err)
	}
	sum := rec.summary()
	var staged int64
	for _, name := range core.StageNames {
		if sum.StageNs[name] <= 0 {
			t.Errorf("stage %s has no span time: %v", name, sum.StageNs)
		}
		staged += sum.StageNs[name]
	}
	if staged > sum.OpNs {
		t.Errorf("stage spans %d ns exceed the op span %d ns", staged, sum.OpNs)
	}
	if got, want := sum.Counters["pso_outer_evals"], res.Stats.Stage(core.StageOuter).Counter("pso_outer_evals"); got != want || got == 0 {
		t.Errorf("summed pso_outer_evals %d, flow reports %d", got, want)
	}
	if sum.Counters["solver_ticks"] == 0 {
		t.Error("no solver ticks recorded")
	}
}

func TestQuantileMatchesPythonStatistics(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		for i := 1; i <= 3; i++ {
			if got := quantile(c.data, i, 4); math.Abs(got-c.want[i-1]) > 1e-12 {
				t.Errorf("quantile(%v, %d, 4) = %v, want %v", c.data, i, got, c.want[i-1])
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, wall, setup, failRate float64) string {
		rep := report{Workloads: []*workloadReport{{
			Name: "flow_cpa",
			EndToEnd: map[string]stat{
				"wall_s":    single(wall, 5, "s"),
				"setup_s":   single(setup, 5, "s"),
				"fail_rate": single(failRate, 5, "ratio"),
			},
		}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 10, 0.001, 0)
	var wallBound metricDef
	for _, d := range endToEnd {
		if d.name == "wall_s" {
			wallBound = d
		}
	}
	for _, c := range []struct {
		name                  string
		wall, setup, failRate float64
		want                  int
	}{
		{"unchanged", 10, 0.001, 0, 0},
		{"within bound", 10 * (1 + 0.9*wallBound.bound), 0.001, 0, 0},
		{"setup within absolute floor", 10, 0.004, 0, 0},
		{"wall beyond bound", 10 * (1 + 1.1*wallBound.bound), 0.001, 0, 1},
		{"setup beyond floor", 10, 0.007, 0, 1},
		{"more failures", 10, 0.001, 0.2, 1},
	} {
		if got := compareReports(io.Discard, base, write(c.name+".json", c.wall, c.setup, c.failRate)); got != c.want {
			t.Errorf("%s: compare exit %d, want %d", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json
// in step with the workloads and metrics this program emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, got, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound == nil || *got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, want %+v", i, got, d)
		}
	}
	layers := perLayer()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(layers))
	}
	for i, d := range layers {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != nil {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, want %s in %s", i, got, d.name, d.unit)
		}
	}
}
