package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flowstage"
)

// childEnv marks a re-executed benchmark binary (or test binary) as a
// pass child: it reads a passSpec on stdin and writes a passResult on
// stdout.
const childEnv = "DFTBENCH_CHILD"

// passSpec is what the parent hands a child.
type passSpec struct {
	Workload string   `json:"workload"`
	Pass     int      `json:"pass"`
	Ops      []opSpec `json:"ops"`
	// SetupOnly children stop at the first op's start: they sample set-up
	// time without running anything.
	SetupOnly bool `json:"setup_only,omitempty"`
	// Trace attaches the span recorder and the CPU profiler; their files
	// are written to TraceBase + ".trace.json" and ".cpu.pprof".
	Trace     bool   `json:"trace,omitempty"`
	TraceBase string `json:"trace_base,omitempty"`
	// CacheDir is the disk tier of the pass's artifact caches (cached ops).
	CacheDir string `json:"cache_dir,omitempty"`
	// Golden maps op keys to the expected canonical hash.
	Golden map[string]string `json:"golden,omitempty"`
	// Verified lists hashes whose independent checks already passed in
	// this run; an op with one of them skips the re-simulation, since the
	// hash pins its output byte for byte.
	Verified []string `json:"verified,omitempty"`
	// SpawnNs is the parent's wall clock just before it started the child.
	SpawnNs int64 `json:"spawn_ns"`
}

// passResult is what a child reports.
type passResult struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// SetupNs runs from spawn to the first op's start, WallNs from there to
	// the last op's end; CPUNs is the process's user+sys CPU over the same
	// interval and PeakRSSKB its high-water RSS at the end of it.
	SetupNs   int64 `json:"setup_ns"`
	WallNs    int64 `json:"wall_ns"`
	CPUNs     int64 `json:"cpu_ns"`
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// StealNs is the time the hypervisor took from the machine's virtual
	// CPUs over the timed interval, summed over CPUs.
	StealNs int64       `json:"steal_ns"`
	Ops     []opResult  `json:"ops"`
	Trace   *passTraced `json:"trace,omitempty"`
}

// opResult is one op's outcome. Failures is empty for a passing op.
type opResult struct {
	Key      string      `json:"key"`
	Hit      bool        `json:"hit,omitempty"`
	WallNs   int64       `json:"wall_ns"`
	Hash     string      `json:"hash,omitempty"`
	Fields   tableFields `json:"fields,omitempty"`
	Checked  bool        `json:"checked,omitempty"`
	Failures []string    `json:"failures,omitempty"`
}

// passTraced is what a traced pass adds: span time per stage and per
// degradation-chain tier, summed StageStats counters, and Go heap
// deltas over the timed interval.
type passTraced struct {
	OpNs       int64            `json:"op_ns"`
	StageNs    map[string]int64 `json:"stage_ns"`
	ChainNs    map[string]int64 `json:"chain_ns"`
	Counters   map[string]int64 `json:"counters"`
	AllocBytes uint64           `json:"alloc_bytes"`
	GCCycles   uint32           `json:"gc_cycles"`
}

// tableFields are the op's results in clear: Table 1's columns for a
// flow, the suite's size and coverage for an FPVA grid.
type tableFields map[string]int64

func childMain() int {
	var spec passSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		fmt.Fprintf(os.Stderr, "dftbench child: read spec: %v\n", err)
		return 1
	}
	res, err := runPass(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dftbench child: %s pass %d: %v\n", spec.Workload, spec.Pass, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "dftbench child: write result: %v\n", err)
		return 1
	}
	return 0
}

// preparedOp is an op with its inputs built.
type preparedOp struct {
	spec  opSpec
	chip  *chip.Chip
	assay *assay.Graph // nil for suite ops
}

func prepare(o opSpec) (*preparedOp, error) {
	if o.FPVA > 0 {
		c, err := chip.GenerateFPVA(chip.FPVAParams{W: o.FPVA, H: o.FPVA, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		return &preparedOp{spec: o, chip: c}, nil
	}
	c, ok := chip.BenchmarkByName(o.Chip)
	if !ok {
		return nil, fmt.Errorf("unknown chip %q", o.Chip)
	}
	g, ok := assay.BenchmarkByName(o.Assay)
	if !ok {
		return nil, fmt.Errorf("unknown assay %q", o.Assay)
	}
	return &preparedOp{spec: o, chip: c, assay: g}, nil
}

func (p *preparedOp) flowOptions(cache *core.Cache, obs flowstage.Observer) core.Options {
	opts := core.Options{
		Seed:        p.spec.Seed,
		UseILP:      p.spec.ILP,
		ExactBudget: p.spec.ExactBudget,
		Observer:    obs,
		Cache:       cache,
	}
	opts.Outer.Iterations = p.spec.OuterIters
	return opts
}

// outcome is an op's raw result, kept for the checks after the timed
// interval.
type outcome struct {
	op    *preparedOp
	hit   bool
	wall  time.Duration
	flow  *core.Result
	suite *core.SuiteRunResult
	err   error
}

// run runs the op once; hit marks the re-request of a cached op.
func (p *preparedOp) run(cache *core.Cache, rec *spanRecorder, hit bool) outcome {
	var obs flowstage.Observer
	if rec != nil {
		obs = rec
		name := p.spec.Key
		if hit {
			name += " (disk hit)"
		}
		rec.beginOp(name)
		defer rec.endOp()
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.spec.Timeout)
	defer cancel()
	out := outcome{op: p, hit: hit}
	t0 := time.Now()
	if p.assay == nil {
		out.suite, out.err = core.RunSuiteCtx(ctx, p.chip, core.SuiteRunOptions{Observer: obs})
	} else {
		out.flow, out.err = core.RunDFTFlowCtx(ctx, p.chip, p.assay, p.flowOptions(cache, obs))
	}
	out.wall = time.Since(t0)
	return out
}

func runPass(spec passSpec) (*passResult, error) {
	ops := make([]*preparedOp, len(spec.Ops))
	cached := false
	for i, o := range spec.Ops {
		p, err := prepare(o)
		if err != nil {
			return nil, fmt.Errorf("op %s: %w", o.Key, err)
		}
		ops[i] = p
		cached = cached || o.Cached
	}
	var store *core.Cache
	if cached {
		var err error
		if store, err = core.NewCache(core.CacheConfig{Dir: spec.CacheDir}); err != nil {
			return nil, err
		}
	}
	res := &passResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var rec *spanRecorder
	var prof *os.File
	var before runtime.MemStats
	if spec.Trace && !spec.SetupOnly {
		var err error
		if prof, err = os.Create(spec.TraceBase + ".cpu.pprof"); err != nil {
			return nil, err
		}
		defer prof.Close() // error paths only; the success path checks Close below
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
		rec = newSpanRecorder()
		runtime.ReadMemStats(&before)
	}
	cpu0, _ := rusage()
	steal0 := hostSteal()
	start := time.Now()
	res.SetupNs = start.UnixNano() - spec.SpawnNs
	if spec.SetupOnly {
		return res, nil
	}

	var outs []outcome
	for _, p := range ops {
		var cache *core.Cache
		if p.spec.Cached {
			cache = store
		}
		outs = append(outs, p.run(cache, rec, false))
	}
	if cached {
		// Every result again through a second cache on the same directory:
		// its memory tier is empty, so each request is a disk hit.
		second, err := core.NewCache(core.CacheConfig{Dir: spec.CacheDir})
		if err != nil {
			return nil, err
		}
		for _, p := range ops {
			if p.spec.Cached {
				outs = append(outs, p.run(second, rec, true))
			}
		}
	}

	res.WallNs = time.Since(start).Nanoseconds()
	res.StealNs = (hostSteal() - steal0).Nanoseconds()
	cpu1, rss := rusage()
	res.CPUNs = (cpu1 - cpu0).Nanoseconds()
	res.PeakRSSKB = rss
	if rec != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, err
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.Trace = rec.summary()
		res.Trace.AllocBytes = after.TotalAlloc - before.TotalAlloc
		res.Trace.GCCycles = after.NumGC - before.NumGC
		if err := rec.writeChrome(spec.TraceBase+".trace.json", spec.Pass); err != nil {
			return nil, err
		}
	}

	verified := map[string]bool{}
	for _, h := range spec.Verified {
		verified[h] = true
	}
	solved := map[string][]byte{}
	for _, o := range outs {
		res.Ops = append(res.Ops, check(o, spec.Golden, verified, solved))
	}
	return res, nil
}

// rusage returns the process's user+sys CPU time and its peak RSS in
// KiB. The peak is VmHWM, the high-water mark of this process's own
// address space: ru_maxrss survives execve and so starts at the parent's
// RSS. Where /proc is missing it falls back to ru_maxrss.
func rusage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return cpu, ru.Maxrss
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
				return cpu, kb
			}
		}
	}
	return cpu, ru.Maxrss
}

// hostSteal returns the time the hypervisor has taken from this machine's
// virtual CPUs since boot, summed over CPUs: the steal field of the "cpu"
// line of /proc/stat, in 10 ms ticks. It is 0 where /proc is missing.
func hostSteal() time.Duration {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// check verifies one op outside the timed interval. Cheap checks run on
// every op; the independent re-simulation runs once per distinct output
// hash in a run (verified). solved maps an op key to its solved
// encoding, so the op's disk hit can be compared byte for byte.
func check(o outcome, golden map[string]string, verified map[string]bool, solved map[string][]byte) opResult {
	r := opResult{Key: o.op.spec.Key, Hit: o.hit, WallNs: o.wall.Nanoseconds()}
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	if o.err != nil {
		if errors.Is(o.err, context.DeadlineExceeded) {
			fail("deadline %v exceeded: %v", o.op.spec.Timeout, o.err)
		} else {
			fail("error: %v", o.err)
		}
		return r
	}
	var independent func() []string
	if o.suite != nil {
		enc, err := core.EncodeSuite(o.suite.Suite, o.suite.Coverage)
		if err != nil {
			fail("encode suite: %v", err)
			return r
		}
		r.Hash = hashOf(enc)
		cov := o.suite.Coverage
		r.Fields = tableFields{
			"valves":   int64(o.op.chip.NumValves()),
			"vectors":  int64(len(o.suite.Suite.Paths) + len(o.suite.Suite.Cuts)),
			"detected": int64(cov.Detected),
			"faults":   int64(cov.Total),
		}
		if !cov.Full() {
			fail("suite coverage %d/%d", cov.Detected, cov.Total)
		}
		independent = func() []string {
			c := o.op.chip
			return resimulate(c, chip.IndependentControl(c), o.suite.Suite.Vectors())
		}
	} else {
		res := o.flow
		switch {
		case res.Interrupted:
			fail("interrupted")
		case res.Solve.Degraded:
			fail("degraded: solved by tier %s", res.Solve.Name)
		case !res.CoverageFull:
			fail("coverage not full")
		}
		if o.op.spec.ILP && res.Solve.Name != "exact" {
			fail("solved by tier %q, want exact", res.Solve.Name)
		}
		if res.ExecPSO > res.ExecNoPSO {
			fail("ExecPSO %d > ExecNoPSO %d", res.ExecPSO, res.ExecNoPSO)
		}
		if n := len(res.PathVectors) + len(res.CutVectors); res.NumTestVectors != n {
			fail("NumTestVectors %d != %d path+cut vectors", res.NumTestVectors, n)
		}
		enc, err := core.EncodeResult(res)
		if err != nil {
			fail("encode result: %v", err)
			return r
		}
		if o.hit {
			want, ok := solved[r.Key]
			if !ok {
				fail("hit without a solved result")
			} else if string(enc) != string(want) {
				fail("disk hit decodes to a different encoding than the solve")
			}
			if st := res.Stats.Stage(core.StageArtifact); st == nil || st.Counter("art_disk_hits") != 1 {
				fail("re-request was not served by the disk tier")
			}
		} else {
			solved[r.Key] = enc
		}
		if o.op.spec.ILP {
			if enc, err = maskILPEffort(enc); err != nil {
				fail("mask ILP effort: %v", err)
				return r
			}
		}
		r.Hash = hashOf(enc)
		r.Fields = tableFields{
			"exec_original":    int64(res.ExecOriginal),
			"exec_no_pso":      int64(res.ExecNoPSO),
			"exec_pso":         int64(res.ExecPSO),
			"num_dft_valves":   int64(res.NumDFTValves),
			"num_shared":       int64(res.NumShared),
			"num_test_vectors": int64(res.NumTestVectors),
		}
		independent = func() []string {
			vectors := append(append([]fault.Vector{}, res.PathVectors...), res.CutVectors...)
			return resimulate(res.Aug.Chip, res.Control, vectors)
		}
	}
	if want, ok := golden[r.Key]; ok && want != r.Hash {
		fail("canonical hash %s differs from golden %s", short(r.Hash), short(want))
	}
	if !o.hit && !verified[r.Hash] {
		r.Checked = true
		for _, f := range independent() {
			fail("%s", f)
		}
		if len(r.Failures) == 0 {
			verified[r.Hash] = true
		}
	}
	return r
}

// resimulate fault-simulates vectors on a fresh simulator with a
// single-worker engine — none of the memo or campaign state the op used —
// and requires every stuck-at fault to be detected.
func resimulate(c *chip.Chip, ctrl *chip.Control, vectors []fault.Vector) []string {
	sim, err := fault.NewSimulator(c, ctrl)
	if err != nil {
		return []string{fmt.Sprintf("re-simulation: %v", err)}
	}
	cov := fault.NewEngine(sim, 1).EvaluateCoverage(vectors, fault.AllFaults(c))
	if cov.Detected != cov.Total {
		return []string{fmt.Sprintf("re-simulated coverage %d/%d", cov.Detected, cov.Total)}
	}
	return nil
}

// maskILPEffort zeroes the branch-and-bound effort fields of a canonical
// result encoding: node and lazy-cut counts depend on thread timing at
// more than one worker, the rest of the result does not.
func maskILPEffort(enc []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(enc, &m); err != nil {
		return nil, err
	}
	for _, k := range []string{"ilp_nodes", "lazy_cuts"} {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("encoding has no %q field", k)
		}
		m[k] = json.RawMessage("0")
	}
	return json.Marshal(m)
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
