package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/flowstage"
	"repro/internal/solve"
	"repro/internal/testgen"
)

// StageArtifact is the synthesized stage name a cache-served (or
// cache-stored) run reports in Result.Stats: art_mem_hits / art_disk_hits
// mark a hit tier, art_miss + art_store mark a solved-and-stored run.
const StageArtifact = "artifact"

// resultSchema versions the canonical Result encoding; a mismatch reads
// as a miss, never as a decode of stale semantics.
const resultSchema = 1

// Cache is the content-addressed artifact cache the flow and suite
// entrypoints consult: a memory-bounded tier of canonical encodings plus
// an optional cross-run disk tier (CacheConfig.Dir). Values are payload
// bytes in the canonical codec — every hit decodes a fresh copy, so
// callers never share mutable results — and keys are artifact digests,
// so identical submissions cost one solve.
//
// The hit/miss counters are deterministic for any worker count because
// batch deduplication happens before jobs reach a worker pool
// (RunBatch) and each unique digest performs exactly one lookup and at
// most one store.
type Cache struct {
	mem   *artifact.Cache[[]byte]
	store *artifact.Store

	memHits  atomic.Int64
	diskHits atomic.Int64
	misses   atomic.Int64
	stores   atomic.Int64
}

// CacheConfig configures NewCache.
type CacheConfig struct {
	// Dir enables the cross-run disk tier rooted there ("" = memory only).
	Dir string
	// BudgetBytes bounds the memory tier (0 = DefaultCacheBudget).
	BudgetBytes int64
}

// DefaultCacheBudget is the memory tier's byte budget when unset.
const DefaultCacheBudget int64 = 256 << 20

// CacheMetrics is a point-in-time snapshot of cache traffic.
type CacheMetrics struct {
	MemHits  int64                `json:"mem_hits"`
	DiskHits int64                `json:"disk_hits"`
	Misses   int64                `json:"misses"`
	Stores   int64                `json:"stores"`
	Mem      artifact.CacheStats  `json:"mem"`
	Disk     *artifact.StoreStats `json:"disk,omitempty"`
}

// NewCache builds an artifact cache. With a Dir the disk tier is opened
// (created if missing); errors only come from that.
func NewCache(cfg CacheConfig) (*Cache, error) {
	budget := cfg.BudgetBytes
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	c := &Cache{
		mem: artifact.NewCache[[]byte](budget, func(b []byte) int64 { return int64(len(b)) }),
	}
	if cfg.Dir != "" {
		store, err := artifact.OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.store = store
	}
	return c, nil
}

// Store exposes the disk tier (nil when memory-only) so sibling engines
// (template persistence) can share it.
func (c *Cache) Store() *artifact.Store { return c.store }

// Trim advances the memory tier's recency epoch and evicts to budget.
// Call from serial points only (between runs, after a batch fan-in).
func (c *Cache) Trim() { c.mem.AdvanceEpoch() }

// Metrics snapshots the counters.
func (c *Cache) Metrics() CacheMetrics {
	m := CacheMetrics{
		MemHits:  c.memHits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
		Stores:   c.stores.Load(),
		Mem:      c.mem.Stats(),
	}
	if c.store != nil {
		ds := c.store.Stats()
		m.Disk = &ds
	}
	return m
}

// lookup returns the canonical payload for (kind, digest) and the tier
// that served it ("mem" or "disk"), or (nil, "") on a miss. Disk hits
// populate the memory tier.
func (c *Cache) lookup(kind string, d artifact.Digest) ([]byte, string) {
	key := kind + ":" + d.Hex()
	if b, ok := c.mem.Get(key); ok {
		c.memHits.Add(1)
		return b, "mem"
	}
	if c.store != nil {
		if b, ok := c.store.Get(kind, d); ok {
			c.diskHits.Add(1)
			c.mem.Do(key, func() []byte { return b })
			return b, "disk"
		}
	}
	c.misses.Add(1)
	return nil, ""
}

// add stores the canonical payload in both tiers. Disk failures are
// swallowed: the store is an accelerator, never the source of truth.
func (c *Cache) add(kind string, d artifact.Digest, payload []byte) {
	key := kind + ":" + d.Hex()
	c.mem.Do(key, func() []byte { return payload })
	if c.store != nil {
		_ = c.store.Put(kind, d, payload)
	}
	c.stores.Add(1)
}

// flowCacheable reports whether a flow's options describe a pure
// (chip, assay, options) → Result function the cache may serve: injection
// drills and the optional diagnosis/reconfiguration stages are excluded
// (they must actually run).
func flowCacheable(opts Options) bool {
	return len(opts.Inject) == 0 && !opts.Diagnose && !opts.Reconfigure
}

// flowDigest is the content address of a flow submission. Semantic
// inputs only: Workers, Observer and Cache never change the canonical
// encoding of the Result (worker-count invariance is the engines' defining
// property), so they are excluded — two submissions differing only in
// execution knobs share one solve.
func flowDigest(c *chip.Chip, g *assay.Graph, opts Options) artifact.Digest {
	h := artifact.NewHasher("flow")
	h.Digest(artifact.HashChip(c))
	h.Digest(artifact.HashAssay(g))
	outer, inner := opts.Outer, opts.Inner
	outer.Seed, inner.Seed = 0, 0 // the flow overrides PSO seeds with opts.Seed
	h.Digest(artifact.HashPSOConfig(outer))
	h.Digest(artifact.HashPSOConfig(inner))
	h.Digest(artifact.HashSchedParams(opts.Sched))
	h.Bool(opts.UseILP)
	h.Int(opts.Seed)
	h.Int(int64(opts.ExactBudget))
	return h.Sum()
}

// resultDisk is the canonical Result encoding: the semantic payload of a
// finalized flow, without wall-clock noise (runtimes, stage stats,
// per-attempt solver timings). It doubles as the bit-identity envelope —
// cached-vs-recomputed equality is byte equality of this encoding — and
// as the disk schema.
type resultDisk struct {
	Schema          int            `json:"schema"`
	AddedEdges      []int          `json:"added_edges"`
	Source          int            `json:"source"`
	Meter           int            `json:"meter"`
	Paths           [][]int        `json:"paths"`
	Method          string         `json:"method"`
	ILPNodes        int            `json:"ilp_nodes"`
	LazyCuts        int            `json:"lazy_cuts"`
	AugUncovered    []int          `json:"aug_uncovered,omitempty"`
	Partners        []int          `json:"partners"`
	PathVectors     []fault.Vector `json:"path_vectors"`
	CutVectors      []fault.Vector `json:"cut_vectors"`
	ExecOriginal    int            `json:"exec_original"`
	ExecNoPSO       int            `json:"exec_no_pso"`
	ExecPSO         int            `json:"exec_pso"`
	ExecIndependent int            `json:"exec_independent"`
	Trace           []float64      `json:"trace,omitempty"`
	NumDFTValves    int            `json:"num_dft_valves"`
	NumShared       int            `json:"num_shared"`
	NumTestVectors  int            `json:"num_test_vectors"`
	SolveTier       int            `json:"solve_tier"`
	SolveName       string         `json:"solve_name"`
	SolveReason     string         `json:"solve_reason"`
	SolveDegraded   bool           `json:"solve_degraded"`
	Leakage         *leakDisk      `json:"leakage,omitempty"`
	CoverageFull    bool           `json:"coverage_full"`

	// TraceNonFinite holds the trace entries a JSON number cannot carry,
	// by index ("+Inf", "-Inf" or "NaN"; Trace has 0 there). A flow
	// interrupted before its first valid fitness traces +Inf.
	TraceNonFinite map[int]string `json:"trace_non_finite,omitempty"`
}

type leakDisk struct {
	Examined     int   `json:"examined"`
	Detectable   int   `json:"detectable"`
	Undetectable []int `json:"undetectable,omitempty"`
	Vectors      int   `json:"vectors"`
}

// EncodeResult renders a Result in the canonical encoding the cache
// stores and the bit-identity gates compare. Deterministic: the same
// semantic Result always encodes to the same bytes.
func EncodeResult(res *Result) ([]byte, error) {
	d := resultDisk{
		Schema:          resultSchema,
		AddedEdges:      res.Aug.AddedEdges,
		Source:          res.Aug.Source,
		Meter:           res.Aug.Meter,
		Paths:           res.Aug.Paths,
		Method:          res.Aug.Method,
		ILPNodes:        res.Aug.ILPNodes,
		LazyCuts:        res.Aug.LazyCuts,
		AugUncovered:    res.Aug.Uncovered,
		Partners:        res.Partners,
		PathVectors:     res.PathVectors,
		CutVectors:      res.CutVectors,
		ExecOriginal:    res.ExecOriginal,
		ExecNoPSO:       res.ExecNoPSO,
		ExecPSO:         res.ExecPSO,
		ExecIndependent: res.ExecIndependent,
		NumDFTValves:    res.NumDFTValves,
		NumShared:       res.NumShared,
		NumTestVectors:  res.NumTestVectors,
		SolveTier:       res.Solve.Tier,
		SolveName:       res.Solve.Name,
		SolveReason:     string(res.Solve.Reason),
		SolveDegraded:   res.Solve.Degraded,
		CoverageFull:    res.CoverageFull,
	}
	d.Trace, d.TraceNonFinite = splitTrace(res.Trace)
	if res.Leakage != nil {
		d.Leakage = &leakDisk{
			Examined:     res.Leakage.Examined,
			Detectable:   res.Leakage.Detectable,
			Undetectable: res.Leakage.Undetectable,
			Vectors:      res.Leakage.Vectors,
		}
	}
	return json.Marshal(d)
}

// splitTrace moves a trace's non-finite entries into a side table, leaving
// a finite trace untouched (and so encoded exactly as before).
func splitTrace(trace []float64) ([]float64, map[int]string) {
	var nonFinite map[int]string
	out := trace
	for i, v := range trace {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			continue
		}
		if nonFinite == nil {
			nonFinite = map[int]string{}
			out = append([]float64(nil), trace...)
		}
		nonFinite[i] = strconv.FormatFloat(v, 'g', -1, 64)
		out[i] = 0
	}
	return out, nonFinite
}

// DecodeResult rebuilds a Result from the canonical encoding against the
// original (unaugmented) chip: the augmented chip is reconstructed by
// replaying the added edges on a clone and the control assignment by
// re-deriving the sharing, so a decoded Result is as live as a solved
// one. Any structural mismatch (foreign chip, stale schema, corrupt
// payload) returns an error and the caller treats it as a miss.
func DecodeResult(orig *chip.Chip, payload []byte) (*Result, error) {
	var d resultDisk
	if err := json.Unmarshal(payload, &d); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	if d.Schema != resultSchema {
		return nil, fmt.Errorf("core: decode result: schema %d (want %d)", d.Schema, resultSchema)
	}
	for i, text := range d.TraceNonFinite {
		v, err := strconv.ParseFloat(text, 64)
		if err != nil || i < 0 || i >= len(d.Trace) {
			return nil, fmt.Errorf("core: decode result: trace entry %d = %q", i, text)
		}
		d.Trace[i] = v
	}
	c := orig.Clone()
	for _, e := range d.AddedEdges {
		if _, err := c.AddDFTChannel(e); err != nil {
			return nil, fmt.Errorf("core: decode result: replay edge %d: %w", e, err)
		}
	}
	ctrl, err := chip.SharedControl(c, d.Partners)
	if err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	aug := &testgen.Augmentation{
		Chip:       c,
		AddedEdges: d.AddedEdges,
		Paths:      d.Paths,
		Source:     d.Source,
		Meter:      d.Meter,
		Method:     d.Method,
		ILPNodes:   d.ILPNodes,
		LazyCuts:   d.LazyCuts,
		Uncovered:  d.AugUncovered,
	}
	res := &Result{
		Aug:             aug,
		Control:         ctrl,
		Partners:        d.Partners,
		PathVectors:     d.PathVectors,
		CutVectors:      d.CutVectors,
		ExecOriginal:    d.ExecOriginal,
		ExecNoPSO:       d.ExecNoPSO,
		ExecPSO:         d.ExecPSO,
		ExecIndependent: d.ExecIndependent,
		Trace:           d.Trace,
		NumDFTValves:    d.NumDFTValves,
		NumShared:       d.NumShared,
		NumTestVectors:  d.NumTestVectors,
		Solve: solve.Provenance{
			Tier:     d.SolveTier,
			Name:     d.SolveName,
			Reason:   solve.Reason(d.SolveReason),
			Degraded: d.SolveDegraded,
		},
		CoverageFull: d.CoverageFull,
	}
	if d.Leakage != nil {
		res.Leakage = &fault.LeakageReport{
			Examined:     d.Leakage.Examined,
			Detectable:   d.Leakage.Detectable,
			Undetectable: d.Leakage.Undetectable,
			Vectors:      d.Leakage.Vectors,
		}
	}
	return res, nil
}

// artifactStats synthesizes the single-stage Stats of a cache-served run
// and emits the stage bracket to the observer, so live observers see
// cache traffic exactly like any other stage.
func artifactStats(obs flowstage.Observer, dur time.Duration, counters map[string]int64) *flowstage.Stats {
	o := flowstage.OrNop(obs)
	o.StageStart(StageArtifact)
	st := flowstage.StageStats{Name: StageArtifact, Duration: dur, Counters: counters}
	for k, v := range counters {
		switch k {
		case "art_mem_hits", "art_disk_hits":
			st.CacheHits += v
		case "art_miss":
			st.CacheMisses += v
		}
	}
	o.StageEnd(StageArtifact, st)
	return &flowstage.Stats{Total: dur, Stages: []flowstage.StageStats{st}}
}

// appendArtifactStage tacks the store-side artifact stage onto a solved
// run's stats (art_miss + art_store) and emits it to the observer.
func appendArtifactStage(stats *flowstage.Stats, obs flowstage.Observer, counters map[string]int64) {
	o := flowstage.OrNop(obs)
	o.StageStart(StageArtifact)
	st := flowstage.StageStats{Name: StageArtifact, Counters: counters}
	st.CacheMisses += counters["art_miss"]
	o.StageEnd(StageArtifact, st)
	if stats != nil {
		stats.Stages = append(stats.Stages, st)
	}
}

// suiteDigest is the content address of a suite submission: the chip, and
// the engine name "template", which keeps the keys of suites cached before
// the engine became the only one. Workers and cache warmth never change
// the vectors (the engine's defining property), so they are excluded.
func suiteDigest(c *chip.Chip) artifact.Digest {
	h := artifact.NewHasher("suite")
	h.Digest(artifact.HashChip(c))
	h.Str("template")
	return h.Sum()
}

// suiteDisk is the canonical suite encoding (see resultDisk for the
// envelope semantics). Stats are informational and cache-warmth
// dependent, so only the semantic payload is stored.
type suiteDisk struct {
	Schema       int            `json:"schema"`
	Engine       string         `json:"engine"`
	Paths        []fault.Vector `json:"paths"`
	Cuts         []fault.Vector `json:"cuts"`
	PathOf       []int          `json:"path_of"`
	CutOf        []int          `json:"cut_of"`
	Uncovered    []int          `json:"uncovered,omitempty"`
	CovTotal     int            `json:"cov_total"`
	CovDetected  int            `json:"cov_detected"`
	CovUndetated []fault.Fault  `json:"cov_undetected,omitempty"`
}

// EncodeSuite renders a suite run in the canonical encoding.
func EncodeSuite(s *testgen.Suite, cov fault.Coverage) ([]byte, error) {
	return json.Marshal(suiteDisk{
		Schema:       resultSchema,
		Engine:       s.Stats.Engine,
		Paths:        s.Paths,
		Cuts:         s.Cuts,
		PathOf:       s.PathOf,
		CutOf:        s.CutOf,
		Uncovered:    s.Uncovered,
		CovTotal:     cov.Total,
		CovDetected:  cov.Detected,
		CovUndetated: cov.Undetected,
	})
}

// DecodeSuite rebuilds a suite and its coverage from the canonical
// encoding against the requesting chip.
func DecodeSuite(c *chip.Chip, payload []byte) (*testgen.Suite, fault.Coverage, error) {
	var d suiteDisk
	if err := json.Unmarshal(payload, &d); err != nil {
		return nil, fault.Coverage{}, fmt.Errorf("core: decode suite: %w", err)
	}
	if d.Schema != resultSchema {
		return nil, fault.Coverage{}, fmt.Errorf("core: decode suite: schema %d (want %d)", d.Schema, resultSchema)
	}
	if len(d.PathOf) != c.NumValves() || len(d.CutOf) != c.NumValves() {
		return nil, fault.Coverage{}, fmt.Errorf("core: decode suite: valve count mismatch (%d vectors-of for %d valves)", len(d.PathOf), c.NumValves())
	}
	s := &testgen.Suite{
		Chip:      c,
		Paths:     d.Paths,
		Cuts:      d.Cuts,
		PathOf:    d.PathOf,
		CutOf:     d.CutOf,
		Uncovered: d.Uncovered,
		Stats: testgen.SuiteStats{
			Engine: d.Engine,
			Valves: c.NumValves(),
		},
	}
	cov := fault.Coverage{Total: d.CovTotal, Detected: d.CovDetected, Undetected: d.CovUndetated}
	return s, cov, nil
}
