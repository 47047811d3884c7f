package core

import (
	"context"
	"fmt"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/par"
)

// BatchJob is one (chip, assay, options) flow submission.
type BatchJob struct {
	Chip  *chip.Chip
	Assay *assay.Graph
	Opts  Options
}

// BatchResult is one job's outcome, at the submission's index.
type BatchResult struct {
	// Result is the flow result (nil when Err is set).
	Result *Result
	// Err is the job's failure: the solve's error, or for a duplicate the
	// failure to make its own copy of the result.
	Err error
	// Key is the job's content digest (hex), "" for uncacheable options
	// (injections and optional stages — those never dedup).
	Key string
	// Shared marks a deduplicated job: its Result was decoded from the
	// canonical encoding of an identical earlier submission's solve
	// instead of solving again.
	Shared bool
}

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Parallel bounds concurrent solves (0 = runtime.GOMAXPROCS). Results
	// and cache hit/miss counters are bit-identical for any value.
	Parallel int
	// Cache, when set, overrides every job's Options.Cache: lookups and
	// stores go through it, so a batch warms the cross-run tiers.
	Cache *Cache
}

// RunBatch is RunBatchCtx with background context.
func RunBatch(jobs []BatchJob, bo BatchOptions) []BatchResult {
	return RunBatchCtx(context.Background(), jobs, bo)
}

// RunBatchCtx runs N flow submissions as one batch: every job is
// digested up front, identical submissions collapse to one solve, and
// the unique solves run on a bounded worker pool. Results fan back in
// submission order and are bit-identical to N serial runs under the
// canonical encoding (EncodeResult) — deduplicated jobs receive an
// independently decoded copy, never a shared mutable pointer. Dedup
// happens before the pool, so the cache's hit/miss counters are
// deterministic for any Parallel value.
func RunBatchCtx(ctx context.Context, jobs []BatchJob, bo BatchOptions) []BatchResult {
	n := len(jobs)
	out := make([]BatchResult, n)
	type group struct {
		key     string
		members []int
	}
	groups := make(map[string]*group, n)
	var order []*group
	for i := range jobs {
		opts := jobs[i].Opts.withDefaults()
		var key string
		if flowCacheable(opts) {
			key = flowDigest(jobs[i].Chip, jobs[i].Assay, opts).Hex()
		} else {
			// Uncacheable jobs never dedup: their semantics (drills,
			// optional stages) are outside the canonical envelope.
			key = fmt.Sprintf("!uncacheable-%d", i)
		}
		g, ok := groups[key]
		if !ok {
			g = &group{key: key}
			groups[key] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
	}
	// The pool gets no ctx: every group runs, and a cancelled flow
	// returns its Interrupted result or its error like a serial run.
	_ = par.For(context.Background(), par.Workers(bo.Parallel), len(order), func(gi int) {
		g := order[gi]
		first := g.members[0]
		opts := jobs[first].Opts
		if bo.Cache != nil {
			opts.Cache = bo.Cache
		}
		res, err := RunDFTFlowCtx(ctx, jobs[first].Chip, jobs[first].Assay, opts)
		var payload []byte
		var encErr error
		if err == nil && len(g.members) > 1 {
			payload, encErr = EncodeResult(res)
		}
		for idx, i := range g.members {
			r := BatchResult{Key: publicKey(g.key), Result: res, Err: err}
			if err == nil && idx > 0 {
				// Every duplicate gets its own decoded copy; one that
				// cannot be made is the job's error, never an alias.
				r.Shared = true
				r.Result, r.Err = nil, encErr
				if encErr == nil {
					r.Result, r.Err = DecodeResult(jobs[i].Chip, payload)
				}
				if r.Result != nil {
					r.Result.Interrupted = res.Interrupted
				}
			}
			out[i] = r
		}
	})
	return out
}

// publicKey hides the internal uncacheable sentinel from callers.
func publicKey(key string) string {
	if len(key) > 0 && key[0] == '!' {
		return ""
	}
	return key
}
