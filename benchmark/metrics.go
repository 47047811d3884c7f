package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// metricDef names a metric, its unit and whether lower or higher is
// better. For end-to-end metrics, bound is the share of the baseline
// median by which the metric may worsen before a change counts as a
// regression; a negative bound marks a metric that is reported but not
// gated.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the result-line metrics: what a user of the flow sees,
// measured with tracing off; BENCHMARK.json lists the same names, units
// and bounds. Every time is scaled to the reference memory latency (see
// memProbe). setup_s is a few milliseconds, where scheduler jitter alone
// moves it by tens of percent, so -compare adds a 5 ms floor to its bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// reportedEndToEnd are further end-to-end metrics of the report, checked
// by -compare where they have a bound. fail_rate is 0 today, so any
// increase is a regression, and only flow_ivd_pid has disk hits, so
// neither can be a result-line metric. The unscaled times and the probe's
// latency carry no verdict.
var reportedEndToEnd = []metricDef{
	{"fail_rate", "ratio", "lower", 0},
	{"hit_ms_p50", "ms", "lower", 0.10},
	{"hit_ms_p90", "ms", "lower", 0.10},
	{"setup_raw_s", "s", "lower", -1},
	{"wall_raw_s", "s", "lower", -1},
	{"cpu_raw_s", "s", "lower", -1},
	{"mem_latency_ns", "ns", "lower", -1},
}

// setupFloorS is the absolute slack -compare allows setup_s on top of its
// relative bound.
const setupFloorS = 0.005

// layerCPUShares are the layers whose CPU share every traced run reports.
var layerCPUShares = []string{"sched", "fault", "testgen", "pso", "lp", "ilp", "solve", "core", "pressure", "artifact", "gc"}

// stageNames are the flow and suite pipeline stages, plus the artifact
// stage of cached ops.
var stageNames = []string{"schedule", "reference", "banloop", "outer", "finalize", "artifact", "suitegen", "suitecampaign"}

// counterMetrics map per-layer metric names to the StageStats counters
// they sum (per traced pass, median over passes).
var counterMetrics = []struct{ name, counter, better string }{
	{"sched.warm_runs", "sched_warm_runs", "lower"},
	{"sched.fallback_reroutes", "sched_fallback_reroutes", "lower"},
	{"sched.candidate_hits", "sched_candidate_hits", "higher"},
	{"sched.engine_builds", "sched_engine_builds", "lower"},
	{"fault.campaigns", "fault_campaigns", "lower"},
	{"fault.memo_hits", "fault_memo_hits", "higher"},
	{"fault.memo_misses", "fault_memo_misses", "lower"},
	{"fault.screen_skips", "fault_screen_skips", "higher"},
	{"fault.reach_checks", "fault_reach_checks", "higher"},
	{"fault.bridge_checks", "fault_bridge_checks", "higher"},
	{"reval.fastpath", "reval_fastpath", "higher"},
	{"reval.slowpath", "reval_slowpath", "lower"},
	{"reval.recheck_sims", "reval_recheck_sims", "lower"},
	{"tmpl.classes", "tmpl_classes", "lower"},
	{"tmpl.cache_hits", "tmpl_cache_hits", "higher"},
	{"tmpl.instantiated", "tmpl_instantiated", "higher"},
	{"tmpl.fallbacks", "tmpl_fallbacks", "lower"},
	{"suite.vectors", "suite_vectors", "lower"},
	{"pso.outer_evals", "pso_outer_evals", "lower"},
	{"pso.inner_evals", "pso_inner_evals", "lower"},
	{"ban.rounds", "ban_rounds", "lower"},
	{"ilp.nodes", "ilp_nodes", "lower"},
	{"ilp.lazy_cuts", "ilp_lazy_cuts", "lower"},
	{"ilp.steals", "ilp_steals", "lower"},
	{"ilp.idle_waits", "ilp_idle_waits", "lower"},
	{"pressure.solves", "pressure_solves", "lower"},
	{"art.stores", "art_store", "lower"},
	{"art.disk_hits", "art_disk_hits", "higher"},
	{"art.miss", "art_miss", "lower"},
}

// rateMetrics are ratios over the traced passes' summed counters: the
// numerator counter over the sum of the denominator counters.
var rateMetrics = []struct {
	name, num string
	den       []string
	better    string
}{
	{"sched.reroutes_per_run", "sched_fallback_reroutes", []string{"sched_warm_runs"}, "lower"},
	{"fault.memo_hit_rate", "fault_memo_hits", []string{"fault_memo_hits", "fault_memo_misses"}, "higher"},
	{"reval.fastpath_rate", "reval_fastpath", []string{"reval_fastpath", "reval_recheck_pass", "reval_slowpath"}, "higher"},
	{"aug_cache.hit_rate", "aug_cache_hits", []string{"aug_cache_hits", "aug_cache_misses"}, "higher"},
	{"inner_cache.hit_rate", "inner_cache_hits", []string{"inner_cache_hits", "inner_cache_misses"}, "higher"},
	{"pressure.warm_rate", "pressure_warm", []string{"pressure_solves"}, "higher"},
}

// perLayer lists every per-layer metric of a traced run, in report order.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	for _, s := range stageNames {
		add("stage."+s+".share", "share", "lower")
	}
	add("stage.unattributed.share", "share", "lower")
	for _, l := range layerCPUShares {
		add("cpu."+l+".share", "share", "lower")
	}
	add("cpu.substrate.share", "share", "lower")
	add("cpu.attributed.share", "share", "higher")
	add("chain.exact.share", "share", "lower")
	for _, c := range counterMetrics {
		add(c.name, "count", c.better)
	}
	for _, r := range rateMetrics {
		add(r.name, "ratio", r.better)
	}
	add("go.alloc_mb", "MB", "lower")
	add("go.gc_cycles", "count", "lower")
	add("trace.overhead", "ratio", "lower")
	return out
}

// stat is a metric's distribution over a run: median and quartiles as
// Python's statistics.quantiles(n=4) gives them, and the sample count.
// Percentiles, rates and shares carry one value, repeated as quartiles.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func distribution(xs []float64, unit string) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Median: quantile(s, 2, 4), Q1: quantile(s, 1, 4), Q3: quantile(s, 3, 4), N: len(s), Unit: unit}
}

func single(v float64, n int, unit string) stat {
	return stat{Median: v, Q1: v, Q3: v, N: n, Unit: unit}
}

// quantile returns the i-th of the q-quantiles of sorted data with
// Python's default "exclusive" method; one sample is its own quantile.
func quantile(sorted []float64, i, q int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	m := i * (n + 1)
	j := m / q
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := float64(m - j*q)
	return (sorted[j-1]*(float64(q)-delta) + sorted[j]*delta) / float64(q)
}

func median(xs []float64) float64 { return distribution(xs, "").Median }

// envInfo records what a run ran on.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	OSArch     string `json:"os_arch"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
	Trace      bool   `json:"trace,omitempty"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env       envInfo           `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name         string          `json:"name"`
	Passes       int             `json:"passes"`
	TracedPasses int             `json:"traced_passes"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Failures     []string        `json:"failures,omitempty"`
	NoGolden     []string        `json:"no_golden,omitempty"`
	EndToEnd     map[string]stat `json:"end_to_end"`
	Layers       map[string]stat `json:"per_layer,omitempty"`
	Ops          map[string]stat `json:"ops"`
	CPU          *layerCPU       `json:"cpu_samples,omitempty"`
	PassLog      []passRecord    `json:"pass_log"`
}

// passRecord is one pass as measured, unscaled, with the host's stolen
// CPU time over it and the memory latency the probe saw just before it.
type passRecord struct {
	Traced    bool    `json:"traced,omitempty"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	StealS    float64 `json:"steal_s"`
	LatencyNs float64 `json:"latency_ns"`
}

// passSamples accumulates a run's pass results. Every time is kept twice:
// as measured (raw), and scaled by refLatencyNs over the latency the
// memory probe saw just before the pass, so each pass is corrected for
// the load on the host at its own moment.
type passSamples struct {
	setup, wall, cpu, hits    []float64
	setupRaw, wallRaw, cpuRaw []float64
	rss                       []float64
	latency                   []float64 // memory-probe samples, ns
	opWall                    map[string][]float64
	tracedWall                []float64
	traced                    []*passTraced
	tracedScale               []float64 // each traced pass's wall-time factor
	profiles                  []string
}

func (s *passSamples) addSetup(res *passResult, latency float64) {
	v := float64(res.SetupNs) / 1e9
	s.setupRaw = append(s.setupRaw, v)
	s.setup = append(s.setup, v*refLatencyNs/latency)
}

// add records one pass. Its wall times are first cleared of the CPU time
// the hypervisor stole while the child ran: stolen time accrues only on
// busy virtual CPUs, so with cpu seconds run and steal seconds stolen the
// child would have taken wall·cpu/(cpu+steal) undisturbed. On a 2-core VM
// where steal reached half the child's CPU time, that cut the spread of
// flow_ivd_pid's ten run medians from 0.40 to 0.06.
func (s *passSamples) add(res *passResult, traceBase string, latency float64) {
	scale := refLatencyNs / latency
	wall := float64(res.WallNs) / 1e9
	cpu := float64(res.CPUNs) / 1e9
	wallScale := scale
	if steal := float64(res.StealNs) / 1e9; steal > 0 {
		wallScale *= cpu / (cpu + steal)
	}
	if res.Trace != nil {
		s.tracedWall = append(s.tracedWall, wall*wallScale)
		s.traced = append(s.traced, res.Trace)
		s.tracedScale = append(s.tracedScale, wallScale)
		s.profiles = append(s.profiles, traceBase+".cpu.pprof")
		return
	}
	s.addSetup(res, latency)
	s.wallRaw = append(s.wallRaw, wall)
	s.cpuRaw = append(s.cpuRaw, cpu)
	s.wall = append(s.wall, wall*wallScale)
	s.cpu = append(s.cpu, cpu*scale)
	s.rss = append(s.rss, float64(res.PeakRSSKB)/1024)
	if s.opWall == nil {
		s.opWall = map[string][]float64{}
	}
	for _, op := range res.Ops {
		if op.Hit {
			s.hits = append(s.hits, float64(op.WallNs)/1e6*wallScale)
		} else {
			s.opWall[op.Key] = append(s.opWall[op.Key], float64(op.WallNs)/1e9*wallScale)
		}
	}
}

// finish turns the samples into the report's end-to-end, per-op and
// per-layer metrics.
func (s *passSamples) finish(rep *workloadReport) error {
	rep.EndToEnd = map[string]stat{
		"setup_s":        distribution(s.setup, "s"),
		"wall_s":         distribution(s.wall, "s"),
		"cpu_s":          distribution(s.cpu, "s"),
		"peak_rss_mb":    distribution(s.rss, "MB"),
		"setup_raw_s":    distribution(s.setupRaw, "s"),
		"wall_raw_s":     distribution(s.wallRaw, "s"),
		"cpu_raw_s":      distribution(s.cpuRaw, "s"),
		"mem_latency_ns": distribution(s.latency, "ns"),
	}
	rep.EndToEnd["fail_rate"] = single(float64(rep.Failed)/float64(rep.Attempted), rep.Attempted, "ratio")
	if len(s.hits) > 0 {
		h := append([]float64(nil), s.hits...)
		sort.Float64s(h)
		rep.EndToEnd["hit_ms_p50"] = single(quantile(h, 5, 10), len(h), "ms")
		rep.EndToEnd["hit_ms_p90"] = single(quantile(h, 9, 10), len(h), "ms")
	}
	rep.Ops = map[string]stat{}
	for k, v := range s.opWall {
		rep.Ops["op."+k+".s"] = distribution(v, "s")
	}
	if len(s.traced) == 0 {
		return nil
	}
	rep.TracedPasses = len(s.traced)
	rep.CPU = &layerCPU{}
	for _, p := range s.profiles {
		samples, err := readProfile(p)
		if err != nil {
			return err
		}
		rep.CPU.attribute(samples)
	}
	rep.Layers = s.layers(rep.CPU)
	return nil
}

// layers computes the per-layer metrics of the traced passes.
func (s *passSamples) layers(cpu *layerCPU) map[string]stat {
	n := len(s.traced)
	out := map[string]stat{}
	var opNs int64
	stageNs := map[string]int64{}
	sums := map[string]int64{}
	for _, t := range s.traced {
		opNs += t.OpNs
		for k, v := range t.StageNs {
			stageNs[k] += v
		}
		for k, v := range t.Counters {
			sums[k] += v
		}
	}
	var staged int64
	for _, ns := range stageNs {
		staged += ns
	}
	for _, name := range stageNames {
		out["stage."+name+".share"] = single(ratio(stageNs[name], opNs), n, "share")
		out["stage."+name+".s"] = distribution(s.eachScaled(func(t *passTraced) float64 { return float64(t.StageNs[name]) / 1e9 }), "s")
	}
	out["stage.unattributed.share"] = single(ratio(opNs-staged, opNs), n, "share")
	out["stage.unattributed.s"] = distribution(s.eachScaled(func(t *passTraced) float64 {
		var st int64
		for _, v := range t.StageNs {
			st += v
		}
		return float64(t.OpNs-st) / 1e9
	}), "s")
	var exact int64
	for _, t := range s.traced {
		exact += t.ChainNs["exact"]
	}
	out["chain.exact.share"] = single(ratio(exact, opNs), n, "share")
	out["chain.exact.s"] = distribution(s.eachScaled(func(t *passTraced) float64 { return float64(t.ChainNs["exact"]) / 1e9 }), "s")

	layers := append([]string(nil), layerCPUShares...)
	for l := range cpu.Samples {
		if !slices.Contains(layers, l) {
			layers = append(layers, l)
		}
	}
	named := int64(0)
	for _, l := range layers {
		out["cpu."+l+".share"] = single(ratio(cpu.Samples[l], cpu.Total), int(cpu.Total), "share")
		if l != "other" {
			named += cpu.Samples[l]
		}
	}
	out["cpu.substrate.share"] = single(ratio(cpu.Substrate, cpu.Total), int(cpu.Total), "share")
	out["cpu.attributed.share"] = single(ratio(named, cpu.Total), int(cpu.Total), "share")

	for _, c := range counterMetrics {
		counter := c.counter
		out[c.name] = distribution(s.each(func(t *passTraced) float64 { return float64(t.Counters[counter]) }), "count")
	}
	for _, r := range rateMetrics {
		var den int64
		for _, d := range r.den {
			den += sums[d]
		}
		out[r.name] = single(ratio(sums[r.num], den), n, "ratio")
	}
	out["go.alloc_mb"] = distribution(s.each(func(t *passTraced) float64 { return float64(t.AllocBytes) / (1 << 20) }), "MB")
	out["go.gc_cycles"] = distribution(s.each(func(t *passTraced) float64 { return float64(t.GCCycles) }), "count")
	overhead := 0.0
	if len(s.wall) > 0 {
		overhead = median(s.tracedWall)/median(s.wall) - 1
	}
	out["trace.overhead"] = single(overhead, n, "ratio")
	return out
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never uses).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (s *passSamples) each(f func(*passTraced) float64) []float64 {
	out := make([]float64, len(s.traced))
	for i, t := range s.traced {
		out[i] = f(t)
	}
	return out
}

// eachScaled is each for wall times: every pass's value is scaled as that
// pass's wall time was.
func (s *passSamples) eachScaled(f func(*passTraced) float64) []float64 {
	out := s.each(f)
	for i := range out {
		out[i] *= s.tracedScale[i]
	}
	return out
}

// printReport writes a workload's metrics as an aligned table.
func printReport(w io.Writer, rep *workloadReport) {
	fmt.Fprintf(w, "\n== %s: %d passes (%d traced), %d/%d ops failed\n", rep.Name, rep.Passes, rep.TracedPasses, rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	row := func(name string, s stat) {
		fmt.Fprintf(w, "   %-32s %12.6g  [%.6g, %.6g]  n=%-5d %s\n", name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
	for _, d := range allEndToEnd() {
		if s, ok := rep.EndToEnd[d.name]; ok {
			row(d.name, s)
		}
	}
	for _, k := range sortedKeys(rep.Ops) {
		row(k, rep.Ops[k])
	}
	for _, k := range sortedKeys(rep.Layers) {
		row(k, rep.Layers[k])
	}
}

// contractLine is the one-line JSON result of a single-workload run: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. A metric that no pass measured, because every pass that
// would have was killed or crashed, is left out; those passes' ops count
// as failed, so the line then reads correct: false.
func contractLine(rep *workloadReport, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer() {
			if s, ok := rep.Layers[d.name]; ok {
				metrics[d.name] = value{s.Median, d.unit}
			}
		}
	} else {
		for _, d := range endToEnd {
			if s := rep.EndToEnd[d.name]; s.N > 0 {
				metrics[d.name] = value{s.Median, d.unit}
			}
		}
	}
	return json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
}

// allEndToEnd lists the result-line and the reported end-to-end metrics.
func allEndToEnd() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), reportedEndToEnd...)
}
