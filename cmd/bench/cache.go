package main

// cache.go is the cache mode. Per bundled design (case "<chip>/<assay>")
// the DFT flow runs uncached (the reference), cold through a fresh disk
// cache (timed once), and warm from that cache's directory (disk-hit,
// gated against the committed report). Every cached leg must reproduce
// the uncached canonical encoding, and disk-hit must collapse to the
// single artifact stage.

import (
	"bytes"
	"os"
	"time"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/pso"
)

// cacheFlowOpts is the flow configuration every leg runs: small enough to
// iterate, large enough that a solve dwarfs a cache hit.
func cacheFlowOpts(seed int64) core.Options {
	return core.Options{
		Outer: pso.Config{Particles: 4, Iterations: 10},
		Inner: pso.Config{Particles: 4, Iterations: 6},
		Seed:  seed,
	}
}

func runCache() ([]Record, error) {
	var recs []Record
	for _, combo := range combos {
		rs, err := cacheDesign(combo.chip, combo.assay)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	setSpeedups(recs, "uncached", "")
	return recs, nil
}

// cacheDesign measures one design's uncached, cold and disk-hit flows.
func cacheDesign(mkChip func() *chip.Chip, mkAssay func() *assay.Graph) ([]Record, error) {
	cs := mkChip().Name + "/" + mkAssay().Name
	var res *core.Result
	flow := func(opts core.Options) func() error {
		return func() (err error) {
			res, err = core.RunDFTFlow(mkChip(), mkAssay(), opts)
			return err
		}
	}
	// add appends the record of the leg just run, gating its result
	// against the first (uncached) leg's canonical encoding.
	var recs []Record
	var want []byte
	add := func(r Record, err error) error {
		if err != nil {
			return err
		}
		enc, err := core.EncodeResult(res)
		if err != nil {
			return err
		}
		if want == nil {
			want = enc
			r.Counters = map[string]float64{"payload_bytes": float64(len(enc))}
		} else {
			r.Gates = map[string]bool{"bit_identical": bytes.Equal(enc, want)}
		}
		recs = append(recs, r)
		return nil
	}

	opts := cacheFlowOpts(2018)
	if err := add(measure(cs, "uncached", flow(opts))); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "benchcache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if opts.Cache, err = core.NewCache(core.CacheConfig{Dir: dir}); err != nil {
		return nil, err
	}
	start := time.Now()
	err = flow(opts)()
	if err := add(Record{Case: cs, Variant: "cold", Iterations: 1, NsOp: time.Since(start).Nanoseconds()}, err); err != nil {
		return nil, err
	}
	// The cache keeps nothing in memory: every request after the cold one
	// reads and decodes the stored payload.
	if err := add(measure(cs, "disk-hit", flow(opts))); err != nil {
		return nil, err
	}
	st, disk := res.Stats, &recs[len(recs)-1]
	disk.Gated = true
	disk.Gates["skips_solve"] = st != nil && len(st.Stages) == 1 &&
		st.Stages[0].Name == core.StageArtifact && st.Stages[0].Counters["art_disk_hits"] == 1
	return recs, nil
}
