package main

// sched.go is the -sched mode: it measures the warm-start scheduler engine
// on every bundled chip/assay combination. Each op schedules the same
// augmented chip under a fixed set of control assignments (the
// fitness-path access pattern: one chip, many sharing schemes). The legs:
//
//   - cold: sched.Run — a fresh Engine per call, rebuilding adjacency,
//     candidate routes, doorstep sets and priorities every time. The
//     denominator of the speedup.
//   - warm: one Engine built before the clock starts, Engine.Run per
//     control. This is how core fitness, diagnosis and reconfiguration
//     consume the scheduler; the build cost amortizes to zero.
//
// Before any timing, every control is scheduled through both legs and the
// schedules are compared bit for bit — a mismatch is a hard failure, not a
// report field. The flow's own sched_* counters are reported by the
// repository benchmark's traced runs.
//
// The committed BENCH_sched.json is regenerated with:
//
//	go run ./cmd/bench -sched -out BENCH_sched.json

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/cliutil"
	"repro/internal/sched"
)

// SchedDoc is the serialized scheduler-engine benchmark report.
type SchedDoc struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	Designs    []SchedDesign `json:"designs"`
}

// SchedDesign is one chip/assay combination's measurements.
type SchedDesign struct {
	Chip  string `json:"chip"`
	Assay string `json:"assay"`
	// Controls is how many control assignments one op schedules.
	Controls int `json:"controls"`
	// BitIdentical records that cold and warm produced deeply equal
	// schedules (or identical errors) for every control.
	BitIdentical bool `json:"bit_identical"`
	// WarmSpeedup is cold ns/op over warm ns/op — the headline gain.
	WarmSpeedup float64       `json:"warm_speedup_vs_cold"`
	Results     []SchedResult `json:"results"`
}

// SchedResult is one leg's measurement. An op schedules the full control
// set once.
type SchedResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	SpeedupVs   float64 `json:"speedup_vs_cold,omitempty"`
}

// schedAugment clones c and adds n DFT channels on the first free edges,
// mirroring what the flow's augmentation stage does to the chip the
// fitness scheduler sees.
func schedAugment(c *chip.Chip, n int) (*chip.Chip, error) {
	out := c.Clone()
	added := 0
	for e := 0; e < out.Grid.NumEdges() && added < n; e++ {
		if _, occ := out.ValveOnEdge(e); occ {
			continue
		}
		if _, err := out.AddDFTChannel(e); err != nil {
			return nil, err
		}
		added++
	}
	if added < n {
		return nil, fmt.Errorf("only %d of %d DFT channels fit on %s", added, n, c.Name)
	}
	return out, nil
}

// schedControls builds the fixed control set one op schedules: the
// independent assignment plus deterministic random sharing schemes, the
// access pattern of the PSO's inner swarm.
func schedControls(c *chip.Chip, n int, seed int64) ([]*chip.Control, error) {
	rng := rand.New(rand.NewSource(seed))
	ctrls := []*chip.Control{chip.IndependentControl(c)}
	nOrig := c.NumOriginalValves()
	for len(ctrls) < n {
		partner := make([]int, c.NumDFTValves())
		used := make(map[int]bool)
		for i := range partner {
			partner[i] = -1
			if rng.Intn(2) == 0 {
				p := rng.Intn(nOrig)
				if !used[p] {
					used[p] = true
					partner[i] = p
				}
			}
		}
		ctrl, err := chip.SharedControl(c, partner)
		if err != nil {
			return nil, err
		}
		ctrls = append(ctrls, ctrl)
	}
	return ctrls, nil
}

// schedSameRun compares two (schedule, error) outcomes bit for bit.
func schedSameRun(a *sched.Schedule, aErr error, b *sched.Schedule, bErr error) error {
	if (aErr == nil) != (bErr == nil) {
		return fmt.Errorf("error disposition differs: %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		if aErr.Error() != bErr.Error() {
			return fmt.Errorf("error text differs: %q vs %q", aErr, bErr)
		}
		return nil
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("schedules differ: %+v vs %+v", a, b)
	}
	return nil
}

func runSched(outFile string) int {
	combos := []struct {
		chip  *chip.Chip
		assay *assay.Graph
	}{
		{chip.IVD(), assay.IVD()},
		{chip.RA30(), assay.PID()},
		{chip.MRNA(), assay.CPA()},
	}
	const nControls = 8
	params := sched.Params{}

	doc := SchedDoc{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, combo := range combos {
		aug, err := schedAugment(combo.chip, 4)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		ctrls, err := schedControls(aug, nControls, 2018)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		g := combo.assay

		// Correctness gate before any clock starts: both legs must agree
		// on every control.
		warmEng, err := sched.NewEngine(aug, g, params)
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		for i, ctrl := range ctrls {
			cold, coldErr := sched.Run(aug, ctrl, g, params)
			warm, warmErr := warmEng.Run(ctrl, params)
			if err := schedSameRun(cold, coldErr, warm, warmErr); err != nil {
				return cliutil.Fail(tool, fmt.Errorf("%s ctrl %d: warm vs cold: %w", combo.chip.Name, i, err))
			}
		}

		legs := []struct {
			name string
			run  func()
		}{
			{"cold", func() {
				for _, ctrl := range ctrls {
					sched.Run(aug, ctrl, g, params)
				}
			}},
			{"warm", func() {
				for _, ctrl := range ctrls {
					warmEng.Run(ctrl, params)
				}
			}},
		}

		d := SchedDesign{Chip: combo.chip.Name, Assay: g.Name, Controls: len(ctrls), BitIdentical: true}
		var coldNs int64
		for _, leg := range legs {
			run := leg.run
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
			r := SchedResult{
				Name:        leg.name,
				Iterations:  br.N,
				NsPerOp:     br.NsPerOp(),
				BytesPerOp:  br.AllocedBytesPerOp(),
				AllocsPerOp: br.AllocsPerOp(),
			}
			if leg.name == "cold" {
				coldNs = r.NsPerOp
			} else if coldNs > 0 && r.NsPerOp > 0 {
				r.SpeedupVs = float64(coldNs) / float64(r.NsPerOp)
				d.WarmSpeedup = r.SpeedupVs
			}
			d.Results = append(d.Results, r)
			fmt.Fprintf(os.Stderr, "%-6s %-8s %12d ns/op %10d B/op %8d allocs/op\n",
				combo.chip.Name, leg.name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		doc.Designs = append(doc.Designs, d)
	}

	return writeBenchArtifact(outFile, doc)
}
