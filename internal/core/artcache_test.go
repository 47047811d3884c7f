package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/flowstage"
	"repro/internal/solve"
	"repro/internal/testgen"
)

// A cached flow result must be byte-identical to a fresh solve under the
// canonical encoding: the cold run solves and stores, and the second
// request on the same cache is a disk hit.
func TestFlowCacheBitIdentity(t *testing.T) {
	opts := smallOpts(11)

	fresh, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(fresh)
	if err != nil {
		t.Fatal(err)
	}

	cc, err := NewCache(CacheConfig{Dir: t.TempDir()})
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
	if got := artifactCounters(cold); got["art_miss"] != 1 || got["art_store"] != 1 {
		t.Fatalf("cold run artifact counters %v, want art_miss=1 art_store=1", got)
	}
	diskHit, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	diskEnc, _ := EncodeResult(diskHit)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk hit differs from fresh solve")
	}
	if diskHit.Stats == nil || len(diskHit.Stats.Stages) != 1 || diskHit.Stats.Stages[0].Name != StageArtifact {
		t.Fatalf("disk hit should report a single artifact stage, got %+v", diskHit.Stats)
	}
	if got := diskHit.Stats.Stages[0].Counters; got["art_disk_hits"] != 1 || len(got) != 1 {
		t.Fatalf("disk hit counters %v, want art_disk_hits=1 only", got)
	}
}

// The cache is a disk store: a config without a directory is rejected.
func TestNewCacheNeedsDir(t *testing.T) {
	if cc, err := NewCache(CacheConfig{}); err == nil || cc != nil {
		t.Fatalf("NewCache without a Dir = %v, %v; want an error", cc, err)
	}
}

// artifactCounters returns the counters of a result's artifact stage, nil
// when it has none.
func artifactCounters(res *Result) map[string]int64 {
	if res.Stats == nil {
		return nil
	}
	for _, st := range res.Stats.Stages {
		if st.Name == StageArtifact {
			return st.Counters
		}
	}
	return nil
}

// A disk payload that does not decode (here a stale schema) is a miss: the
// flow solves once, its store writes over the stale payload, and later
// requests are disk hits served by that payload instead of re-solves.
func TestFlowCacheStalePayload(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts(13)
	store, err := artifact.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := flowDigest(chip.IVD(), assay.IVD(), opts.withDefaults())
	if err := store.Put("flow", d, []byte(`{"schema":0}`)); err != nil {
		t.Fatal(err)
	}
	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cc
	for i := 0; i < 3; i++ {
		res, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats.Stages
		solved := len(st) != 1 || st[0].Name != StageArtifact
		if solved != (i == 0) {
			t.Fatalf("request %d: solved=%v", i, solved)
		}
		got := artifactCounters(res)
		if i == 0 && (got["art_miss"] != 1 || got["art_store"] != 1) {
			t.Fatalf("request 0: counters %v, want a miss and a store", got)
		}
		if i > 0 && got["art_disk_hits"] != 1 {
			t.Fatalf("request %d: counters %v, want a disk hit", i, got)
		}
	}
}

// Uncacheable option sets (injections, optional stages) must bypass the
// cache entirely: no artifact stage, nothing stored.
func TestFlowCacheSkipsUncacheable(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(12)
	opts.Cache = cc
	opts.Inject = []solve.Injection{{Tier: "heuristic", Kind: solve.FaultTimeout}}
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactCounters(res); got != nil {
		t.Fatalf("uncacheable run reported an artifact stage: %v", got)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Fatalf("uncacheable run stored %d files", len(files))
	}
}

// A cancelled flow still returns its Interrupted result, but that result
// is never stored: a later request with the same inputs solves again.
// Cancelling at the outer stage leaves the outer PSO with one evaluation,
// whose augmentation fails on the dead context: the trace is [+Inf].
func TestFlowCacheSkipsInterrupted(t *testing.T) {
	cc, err := NewCache(CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := smallOpts(51)
	opts.Cache = cc
	opts.Observer = cancelAt{stage: StageOuter, cancel: cancel}
	res, err := RunDFTFlowCtx(ctx, chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("result not marked Interrupted")
	}
	if len(res.Trace) == 0 || !math.IsInf(res.Trace[0], 1) {
		t.Fatalf("trace %v, want it to start at +Inf", res.Trace)
	}
	if got := artifactCounters(res); got["art_miss"] != 1 || got["art_store"] != 0 {
		t.Fatalf("interrupted run artifact counters %v, want art_miss=1 and no art_store", got)
	}

	opts.Observer = nil
	again, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Interrupted {
		t.Fatal("uncancelled request marked Interrupted")
	}
	if got := artifactCounters(again); got["art_miss"] != 1 || got["art_disk_hits"] != 0 {
		t.Fatalf("second request artifact counters %v, want a miss that solves", got)
	}
}

// Concurrent requests through one disk cache, for the -race detector:
// goroutines that miss the same digest each solve and store it, and every
// result, solved or served, encodes byte-equal to an uncached solve.
func TestFlowCacheConcurrentRequests(t *testing.T) {
	seeds := []int64{41, 42}
	want := make(map[int64][]byte, len(seeds))
	for _, seed := range seeds {
		res, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed], _ = EncodeResult(res)
	}
	cc, err := NewCache(CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const requests = 8
	got := make([][]byte, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := smallOpts(seeds[i%len(seeds)])
			opts.Cache = cc
			res, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts)
			if err == nil {
				got[i], err = EncodeResult(res)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[seeds[i%len(seeds)]]) {
			t.Fatalf("request %d (seed %d) differs from an uncached solve", i, seeds[i%len(seeds)])
		}
	}
}

// The suite pipeline's cache hits must decode to the same vectors as a
// fresh generation.
func TestSuiteCacheRoundTrip(t *testing.T) {
	cc, err := NewCache(CacheConfig{Dir: filepath.Join(t.TempDir(), "art")})
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
		t.Fatal("suite disk hit differs from fresh")
	}
	if len(hit.Stats.Stages) != 1 || hit.Stats.Stages[0].Name != StageArtifact ||
		hit.Stats.Stages[0].Counters["art_disk_hits"] != 1 {
		t.Fatalf("suite hit should report a single artifact stage with art_disk_hits=1: %+v", hit.Stats)
	}
}

// The standalone test-set artifact (faultsim/chipinfo) round-trips
// through the disk cache.
func TestBuildTestSetCache(t *testing.T) {
	cc, err := NewCache(CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildTestSet(chip.IVD(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeTestSet(fresh)

	cold, err := BuildTestSet(chip.IVD(), false, cc)
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
	disk, err := BuildTestSet(chip.IVD(), false, cc)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Tier != "disk" {
		t.Fatalf("second run tier %q, want disk", disk.Tier)
	}
	diskEnc, _ := EncodeTestSet(disk)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-hit test set differs from fresh")
	}
	// The optimal flag is part of the digest: no false sharing.
	opt, err := BuildTestSet(chip.IVD(), true, cc)
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
