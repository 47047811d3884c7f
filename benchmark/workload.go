package main

import (
	"fmt"
	"math/rand"
	"time"
)

// tableSeed is the PSO seed of the paper's Table 1 runs. The flow_cpa and
// flow_ivd_pid workloads pin their flows to it: a flow's cost is a
// 100x-wide function of the PSO seed (IVD_chip/CPA takes 0.3 s to 6.4 s
// across seeds 1-10 on a 2-core box, because the seed decides which
// sharing schemes set off the scheduler's reroute storm), so a seeded
// search would make a run measure search luck instead of the engines.
const tableSeed = 2018

// opSpec is one operation of a pass: a cold DFT flow on a Table 1
// chip×assay, or a cold test suite on a generated FPVA grid.
type opSpec struct {
	// Key names the op in the golden fixture and in per-op rows; it
	// carries every input that changes the op's result.
	Key   string `json:"key"`
	Chip  string `json:"chip,omitempty"`
	Assay string `json:"assay,omitempty"`
	// FPVA is the side of a square FPVA grid; 0 for flow ops.
	FPVA int `json:"fpva,omitempty"`
	// Seed is the flow's PSO seed, or the FPVA grid's device-placement seed.
	Seed int64 `json:"seed"`
	// OuterIters overrides the outer PSO's 100 iterations (quick mode).
	OuterIters  int           `json:"outer_iters,omitempty"`
	ILP         bool          `json:"ilp,omitempty"`
	ExactBudget time.Duration `json:"exact_budget,omitempty"`
	// Cached ops solve through a fresh disk-backed cache and are then
	// re-requested through a second cache on the same directory.
	Cached bool `json:"cached,omitempty"`
	// Timeout is the op's context deadline (opTimeoutFactor times the
	// workload's expected pass time).
	Timeout time.Duration `json:"timeout"`
}

// workload is one benchmark workload: the ops every pass runs and how
// long a pass takes on a 2-core box.
type workload struct {
	name string
	why  string
	// passes is the pass count of a run without -seconds.
	passes int
	// expectPass bounds a pass: every op gets opTimeoutFactor times it as
	// its deadline, and a child alive after killFactor times it (plus
	// killSlack) is killed and its ops count as failed.
	expectPass time.Duration
	ops        func(seed int64, quick bool) []opSpec
}

// The limits are far above a pass's usual time because a shared host
// slows the flows in bursts: one IVD_chip/CPA op, 2 s as a rule, once ran
// for 22 s. The kill stays above the op deadline, so a stalled op is
// reported by its deadline, and below the 180 s a run may take.
const (
	opTimeoutFactor = 8
	killFactor      = 12
	killSlack       = 5 * time.Second
)

var tableChips = []string{"IVD_chip", "RA30_chip", "mRNA_chip"}

// cpaChips are the chips flow_cpa runs CPA on. IVD_chip's reroute storm
// is in the ban loop and RA30_chip's in the outer PSO, about 2 s each on a
// 2-core box; mRNA_chip/CPA (3.4 s) is left out so that the seven passes
// behind every median take about half a minute.
var cpaChips = []string{"IVD_chip", "RA30_chip"}

// workloads lists the benchmark's workloads in run order.
var workloads = []*workload{
	{
		name:       "flow_cpa",
		why:        "CPA's concurrent transports set off the scheduler's reroute and storage storm; sched is over 90% of CPU",
		passes:     7,
		expectPass: 5 * time.Second,
		ops: func(seed int64, quick bool) []opSpec {
			if quick {
				return []opSpec{flowOp("IVD_chip", "IVD", tableSeed, 5, false)}
			}
			var ops []opSpec
			for _, c := range cpaChips {
				ops = append(ops, flowOp(c, "CPA", tableSeed, 0, false))
			}
			return shuffled(ops, seed)
		},
	},
	{
		name:       "flow_ivd_pid",
		why:        "control for scheduler changes (sched <2% of CPU); sharing repair, fault simulation, GC, and the only artifact-cache stores and disk hits",
		passes:     20,
		expectPass: 2 * time.Second,
		ops: func(seed int64, quick bool) []opSpec {
			if quick {
				return []opSpec{cachedOp(flowOp("IVD_chip", "PID", tableSeed, 5, false))}
			}
			var ops []opSpec
			for _, c := range tableChips {
				for _, a := range []string{"IVD", "PID"} {
					ops = append(ops, cachedOp(flowOp(c, a, tableSeed, 0, false)))
				}
			}
			return shuffled(ops, seed)
		},
	},
	{
		name:       "suite_fpva",
		why:        "no scheduler, PSO or ILP: fault-campaign fast path and template generation, working set growing 30 MB to 450 MB",
		passes:     12,
		expectPass: 3 * time.Second,
		ops: func(seed int64, quick bool) []opSpec {
			sizes := []int{16, 32, 48, 64}
			if quick {
				sizes = []int{8}
			}
			var ops []opSpec
			for _, n := range sizes {
				ops = append(ops, opSpec{
					Key:  fmt.Sprintf("fpva%d/s%d", n, seed),
					FPVA: n,
					Seed: seed,
				})
			}
			return ops
		},
	},
	{
		name:       "flow_exact",
		why:        "exact-ILP tier: LP is 99% of CPU and branch-and-bound effort varies run to run",
		passes:     16,
		expectPass: 3 * time.Second,
		ops: func(seed int64, quick bool) []opSpec {
			if quick {
				op := flowOp("IVD_chip", "IVD", seed, 5, true)
				op.ExactBudget = 10 * time.Second
				op.Key += "/b10s"
				return []opSpec{op}
			}
			return []opSpec{flowOp("IVD_chip", "IVD", seed, 0, true)}
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func flowOp(chipName, assayName string, seed int64, outerIters int, ilp bool) opSpec {
	op := opSpec{
		Key:        fmt.Sprintf("%s/%s/s%d", chipName, assayName, seed),
		Chip:       chipName,
		Assay:      assayName,
		Seed:       seed,
		OuterIters: outerIters,
		ILP:        ilp,
	}
	if ilp {
		op.Key = fmt.Sprintf("%s/%s/ilp/s%d", chipName, assayName, seed)
	}
	if outerIters > 0 {
		op.Key += fmt.Sprintf("/o%d", outerIters)
	}
	return op
}

func cachedOp(op opSpec) opSpec {
	op.Cached = true
	return op
}

// shuffled returns ops in a seed-determined order: the run seed is what
// varies the inputs of the seed-pinned flow workloads.
func shuffled(ops []opSpec, seed int64) []opSpec {
	out := make([]opSpec, len(ops))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(ops)) {
		out[i] = ops[j]
	}
	return out
}
