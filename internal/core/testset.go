package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/testgen"
)

// TestSet is the standalone test-generation artifact the fault-simulation
// and inspection CLIs (faultsim, chipinfo) consume: a heuristic DFT
// augmentation plus the stuck-at-1 cut cover between its source and
// meter. It is the third cacheable kind next to flow Results and suites —
// the -optimal ILP cut cover in particular is worth persisting.
type TestSet struct {
	// Aug is the heuristic augmentation (added channels, test paths).
	Aug *testgen.Augmentation
	// Cuts is the stuck-at-1 cut cover (greedy, or exact when Optimal).
	Cuts []fault.Vector
	// Optimal records whether Cuts came from the exact set cover.
	Optimal bool
	// Tier reports how the set was obtained: "disk" for an artifact
	// cache hit, "" for a fresh solve.
	Tier string
}

// testSetDigest is the content address of a test-set request: chip plus
// the cut engine choice. Workers never change the vectors.
func testSetDigest(c *chip.Chip, optimal bool) artifact.Digest {
	h := artifact.NewHasher("testset")
	h.Digest(artifact.HashChip(c))
	h.Bool(optimal)
	return h.Sum()
}

// testSetDisk is the canonical test-set encoding (see resultDisk for the
// envelope semantics).
type testSetDisk struct {
	Schema     int            `json:"schema"`
	AddedEdges []int          `json:"added_edges"`
	Source     int            `json:"source"`
	Meter      int            `json:"meter"`
	Paths      [][]int        `json:"paths"`
	Method     string         `json:"method"`
	Uncovered  []int          `json:"uncovered,omitempty"`
	Cuts       []fault.Vector `json:"cuts"`
	Optimal    bool           `json:"optimal"`
}

// EncodeTestSet renders a test set in the canonical encoding.
func EncodeTestSet(ts *TestSet) ([]byte, error) {
	return json.Marshal(testSetDisk{
		Schema:     resultSchema,
		AddedEdges: ts.Aug.AddedEdges,
		Source:     ts.Aug.Source,
		Meter:      ts.Aug.Meter,
		Paths:      ts.Aug.Paths,
		Method:     ts.Aug.Method,
		Uncovered:  ts.Aug.Uncovered,
		Cuts:       ts.Cuts,
		Optimal:    ts.Optimal,
	})
}

// DecodeTestSet rebuilds a test set against the original chip by
// replaying the added edges on a clone (exactly like DecodeResult).
func DecodeTestSet(orig *chip.Chip, payload []byte) (*TestSet, error) {
	var d testSetDisk
	if err := json.Unmarshal(payload, &d); err != nil {
		return nil, fmt.Errorf("core: decode test set: %w", err)
	}
	if d.Schema != resultSchema {
		return nil, fmt.Errorf("core: decode test set: schema %d (want %d)", d.Schema, resultSchema)
	}
	c := orig.Clone()
	for _, e := range d.AddedEdges {
		if _, err := c.AddDFTChannel(e); err != nil {
			return nil, fmt.Errorf("core: decode test set: replay edge %d: %w", e, err)
		}
	}
	return &TestSet{
		Aug: &testgen.Augmentation{
			Chip:       c,
			AddedEdges: d.AddedEdges,
			Paths:      d.Paths,
			Source:     d.Source,
			Meter:      d.Meter,
			Method:     d.Method,
			Uncovered:  d.Uncovered,
		},
		Cuts:    d.Cuts,
		Optimal: d.Optimal,
	}, nil
}

// BuildTestSet is BuildTestSetCtx with background context.
func BuildTestSet(c *chip.Chip, optimal bool, cc *Cache) (*TestSet, error) {
	return BuildTestSetCtx(context.Background(), c, optimal, cc)
}

// BuildTestSetCtx augments the chip with the heuristic engine and
// generates its cut cover (exact set cover when optimal), consulting the
// artifact cache when one is supplied: a hit skips both solves and
// returns a decoded set bit-identical to a fresh one under the canonical
// encoding. The result is a pure function of (chip, optimal).
func BuildTestSetCtx(ctx context.Context, c *chip.Chip, optimal bool, cc *Cache) (*TestSet, error) {
	var digest artifact.Digest
	if cc != nil {
		digest = testSetDigest(c, optimal)
		decode := func(b []byte) (*TestSet, error) { return DecodeTestSet(c, b) }
		if ts, hit := lookup(cc, "testset", digest, decode); hit {
			ts.Tier = "disk"
			return ts, nil
		}
	}
	aug, err := testgen.AugmentHeuristicCtx(ctx, c, testgen.Options{})
	if err != nil {
		return nil, err
	}
	var cuts []fault.Vector
	if optimal {
		cuts, err = testgen.GenerateCutsOptimalCtx(ctx, aug.Chip, aug.Source, aug.Meter, testgen.Options{})
	} else {
		cuts, err = testgen.GenerateCutsCtx(ctx, aug.Chip, aug.Source, aug.Meter)
	}
	if err != nil {
		return nil, err
	}
	ts := &TestSet{Aug: aug, Cuts: cuts, Optimal: optimal}
	if cc != nil {
		if payload, encErr := EncodeTestSet(ts); encErr == nil {
			cc.add("testset", digest, payload)
		}
	}
	return ts, nil
}
