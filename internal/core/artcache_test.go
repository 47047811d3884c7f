package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/flowstage"
	"repro/internal/solve"
	"repro/internal/testgen"
)

// A cached flow result must be byte-identical to a fresh solve under the
// canonical encoding, from both the memory and the disk tier.
func TestFlowCacheBitIdentity(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(11)

	fresh, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(fresh)
	if err != nil {
		t.Fatal(err)
	}

	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cc
	cold, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldEnc, _ := EncodeResult(cold)
	if !bytes.Equal(coldEnc, want) {
		t.Fatal("cold cached run differs from uncached run")
	}
	memHit, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	memEnc, _ := EncodeResult(memHit)
	if !bytes.Equal(memEnc, want) {
		t.Fatal("memory-tier hit differs from fresh solve")
	}
	if memHit.Stats == nil || len(memHit.Stats.Stages) != 1 || memHit.Stats.Stages[0].Name != StageArtifact {
		t.Fatalf("memory hit should report a single artifact stage, got %+v", memHit.Stats)
	}
	if memHit.Stats.Stages[0].Counters["art_mem_hits"] != 1 {
		t.Fatalf("missing art_mem_hits counter: %+v", memHit.Stats.Stages[0].Counters)
	}

	// A second process: fresh cache over the same directory = disk tier.
	cc2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cc2
	diskHit, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	diskEnc, _ := EncodeResult(diskHit)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-tier hit differs from fresh solve")
	}
	if diskHit.Stats.Stages[0].Counters["art_disk_hits"] != 1 {
		t.Fatalf("missing art_disk_hits counter: %+v", diskHit.Stats.Stages[0].Counters)
	}
	m := cc2.Metrics()
	if m.DiskHits != 1 || m.MemHits != 0 || m.Misses != 0 {
		t.Fatalf("unexpected warm-run metrics: %+v", m)
	}
}

// Uncacheable option sets (injections, optional stages) must bypass the
// cache entirely.
func TestFlowCacheSkipsUncacheable(t *testing.T) {
	cc, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(12)
	opts.Cache = cc
	opts.Inject = []solve.Injection{{Tier: "heuristic", Kind: solve.FaultTimeout}}
	if _, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts); err != nil {
		t.Fatal(err)
	}
	m := cc.Metrics()
	if m.Misses != 0 || m.Stores != 0 || m.MemHits != 0 {
		t.Fatalf("uncacheable run touched the cache: %+v", m)
	}
}

// RunBatch must collapse duplicate submissions to one solve and fan out
// results bit-identical to serial runs, for every worker count, with
// identical deterministic cache counters.
func TestRunBatchDedupDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seeds := []int64{21, 22}
	var jobs []BatchJob
	for i := 0; i < 12; i++ {
		jobs = append(jobs, BatchJob{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(seeds[i%len(seeds)])})
	}
	// Serial reference.
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		res, err := RunDFTFlow(j.Chip, j.Assay, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = EncodeResult(res)
	}
	var wantMetrics *CacheMetrics
	for _, par := range []int{1, 2, 4, 8} {
		cc, err := NewCache(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		out := RunBatch(jobs, BatchOptions{Parallel: par, Cache: cc})
		shared := 0
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("par=%d job %d: %v", par, i, r.Err)
			}
			enc, _ := EncodeResult(r.Result)
			if !bytes.Equal(enc, want[i]) {
				t.Fatalf("par=%d job %d differs from serial run", par, i)
			}
			if r.Key == "" {
				t.Fatalf("par=%d job %d: missing digest key", par, i)
			}
			if r.Shared {
				shared++
			}
		}
		if shared != len(jobs)-len(seeds) {
			t.Fatalf("par=%d: %d shared results, want %d", par, shared, len(jobs)-len(seeds))
		}
		m := cc.Metrics()
		if wantMetrics == nil {
			wantMetrics = &m
		} else if m.MemHits != wantMetrics.MemHits || m.DiskHits != wantMetrics.DiskHits ||
			m.Misses != wantMetrics.Misses || m.Stores != wantMetrics.Stores {
			t.Fatalf("par=%d: metrics %+v differ from par=1 %+v", par, m, *wantMetrics)
		}
	}
	if wantMetrics.Misses != int64(len(seeds)) || wantMetrics.Stores != int64(len(seeds)) {
		t.Fatalf("batch should miss+store once per unique digest: %+v", *wantMetrics)
	}
}

// Dup-heavy concurrent batch for the -race detector: duplicates share
// one solve and fan out decoded copies.
func TestRunBatchDupHeavyRace(t *testing.T) {
	var jobs []BatchJob
	for i := 0; i < 16; i++ {
		jobs = append(jobs, BatchJob{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(int64(41 + i%4))})
	}
	cc, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := RunBatchCtx(context.Background(), jobs, BatchOptions{Parallel: 8, Cache: cc})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Result == nil {
			t.Fatalf("job %d: nil result", i)
		}
	}
}

// The suite pipeline's cache hits must decode to the same vectors as a
// fresh generation, across both tiers.
func TestSuiteCacheRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "art")
	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := chip.IVD()
	fresh, err := RunSuite(c, SuiteRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeSuite(fresh.Suite, fresh.Coverage)

	cold, err := RunSuite(c, SuiteRunOptions{Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	coldEnc, _ := EncodeSuite(cold.Suite, cold.Coverage)
	if !bytes.Equal(coldEnc, want) {
		t.Fatal("cold cached suite differs from fresh")
	}
	hit, err := RunSuite(c, SuiteRunOptions{Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	hitEnc, _ := EncodeSuite(hit.Suite, hit.Coverage)
	if !bytes.Equal(hitEnc, want) {
		t.Fatal("memory-tier suite hit differs from fresh")
	}
	if len(hit.Stats.Stages) != 1 || hit.Stats.Stages[0].Name != StageArtifact {
		t.Fatalf("suite hit should report single artifact stage: %+v", hit.Stats)
	}

	cc2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := RunSuite(c, SuiteRunOptions{Cache: cc2})
	if err != nil {
		t.Fatal(err)
	}
	diskEnc, _ := EncodeSuite(disk.Suite, disk.Coverage)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-tier suite hit differs from fresh")
	}
}

// The standalone test-set artifact (faultsim/chipinfo) round-trips
// through both tiers.
func TestBuildTestSetCache(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildTestSet(chip.IVD(), false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeTestSet(fresh)

	cold, err := BuildTestSet(chip.IVD(), false, 0, cc)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Tier != "" {
		t.Fatalf("cold run reported tier %q", cold.Tier)
	}
	coldEnc, _ := EncodeTestSet(cold)
	if !bytes.Equal(coldEnc, want) {
		t.Fatal("cold cached test set differs from fresh")
	}
	mem, err := BuildTestSet(chip.IVD(), false, 0, cc)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Tier != "mem" {
		t.Fatalf("second run tier %q, want mem", mem.Tier)
	}
	memEnc, _ := EncodeTestSet(mem)
	if !bytes.Equal(memEnc, want) {
		t.Fatal("memory-tier test set differs from fresh")
	}
	cc2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := BuildTestSet(chip.IVD(), false, 0, cc2)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Tier != "disk" {
		t.Fatalf("fresh-process run tier %q, want disk", disk.Tier)
	}
	diskEnc, _ := EncodeTestSet(disk)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-tier test set differs from fresh")
	}
	// The optimal flag is part of the digest: no false sharing.
	opt, err := BuildTestSet(chip.IVD(), true, 0, cc2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Tier != "" {
		t.Fatalf("optimal run must not hit the greedy entry (tier %q)", opt.Tier)
	}
	if !opt.Optimal {
		t.Fatal("optimal flag lost")
	}
}

// A flow interrupted before its first valid fitness traces +Inf, which
// JSON cannot carry as a number. The canonical encoding must round-trip
// non-finite entries and keep finite traces byte-identical to a plain
// float array.
func TestEncodeResultNonFiniteTrace(t *testing.T) {
	c := chip.IVD()
	for _, trace := range [][]float64{
		{math.Inf(1)},
		{math.Inf(1), 1234, math.Inf(-1), math.NaN(), 0.5},
	} {
		payload, err := EncodeResult(&Result{Aug: &testgen.Augmentation{Chip: c}, Trace: trace})
		if err != nil {
			t.Fatalf("encode %v: %v", trace, err)
		}
		back, err := DecodeResult(c, payload)
		if err != nil {
			t.Fatalf("decode %v: %v", trace, err)
		}
		if fmt.Sprint(back.Trace) != fmt.Sprint(trace) {
			t.Fatalf("trace %v decoded as %v", trace, back.Trace)
		}
	}
	finite := []float64{1234, 0.5, 1e21, 3}
	payload, err := EncodeResult(&Result{Aug: &testgen.Augmentation{Chip: c}, Trace: finite})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := json.Marshal(finite)
	if !bytes.Contains(payload, append([]byte(`"trace":`), plain...)) {
		t.Fatalf("finite trace no longer encodes as a plain array: %s", payload)
	}
}

// cancelAt cancels the flow's context when the named stage starts.
type cancelAt struct {
	flowstage.Nop
	stage  string
	cancel context.CancelFunc
}

func (o cancelAt) StageStart(stage string) {
	if stage == o.stage {
		o.cancel()
	}
}

// Duplicates of an interrupted job still get their own decoded copies.
// Cancelling at the outer stage leaves the outer PSO with one evaluation,
// whose augmentation fails on the dead context: the trace is [+Inf].
func TestRunBatchInterruptedDuplicates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := smallOpts(51)
	opts.Observer = cancelAt{stage: StageOuter, cancel: cancel}
	job := BatchJob{Chip: chip.IVD(), Assay: assay.IVD(), Opts: opts}
	out := RunBatchCtx(ctx, []BatchJob{job, job, job}, BatchOptions{Parallel: 1})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if !r.Result.Interrupted {
			t.Fatalf("job %d: result not marked Interrupted", i)
		}
		if len(r.Result.Trace) == 0 || !math.IsInf(r.Result.Trace[0], 1) {
			t.Fatalf("job %d: trace %v, want it to start at +Inf", i, r.Result.Trace)
		}
	}
	if out[0].Result == out[1].Result || out[0].Result == out[2].Result || out[1].Result == out[2].Result {
		t.Fatal("duplicate jobs share one *Result")
	}
	if !out[1].Shared || !out[2].Shared {
		t.Fatal("duplicate jobs not marked shared")
	}
}
