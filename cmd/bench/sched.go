package main

// sched.go is the sched mode: the warm-start scheduler engine on every
// bundled chip/assay combination. An op schedules one augmented chip under
// a fixed set of control assignments, the fitness path's access pattern.
// The cold leg, the reference, calls sched.Run and so builds a fresh
// Engine per call; the warm leg reuses one Engine built before the clock
// starts, as core fitness, diagnosis and reconfiguration do. Before any
// timing both legs schedule every control, and the warm record's
// bit_identical gate holds only if they agree bit for bit.

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/chip"
	"repro/internal/sched"
)

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

// schedSameRun reports whether two (schedule, error) outcomes are equal
// bit for bit.
func schedSameRun(a *sched.Schedule, aErr error, b *sched.Schedule, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return reflect.DeepEqual(a, b)
}

func runSched() ([]Record, error) {
	const nControls = 8
	params := sched.Params{}
	var recs []Record
	for _, combo := range combos {
		c, g := combo.chip(), combo.assay()
		aug, err := schedAugment(c, 4)
		if err != nil {
			return nil, err
		}
		ctrls, err := schedControls(aug, nControls, 2018)
		if err != nil {
			return nil, err
		}
		warmEng, err := sched.NewEngine(aug, g, params)
		if err != nil {
			return nil, err
		}
		identical := true
		for _, ctrl := range ctrls {
			cold, coldErr := sched.Run(aug, ctrl, g, params)
			warm, warmErr := warmEng.Run(ctrl, params)
			identical = identical && schedSameRun(cold, coldErr, warm, warmErr)
		}

		// Both ops return nil, so measure cannot fail.
		cs := c.Name + "/" + g.Name
		cold, _ := measure(cs, "cold", func() error {
			for _, ctrl := range ctrls {
				sched.Run(aug, ctrl, g, params)
			}
			return nil
		})
		warm, _ := measure(cs, "warm", func() error {
			for _, ctrl := range ctrls {
				warmEng.Run(ctrl, params)
			}
			return nil
		})
		cold.Counters = map[string]float64{"controls": float64(len(ctrls))}
		warm.Counters = map[string]float64{"controls": float64(len(ctrls))}
		warm.Gates = map[string]bool{"bit_identical": identical}
		recs = append(recs, cold, warm)
	}
	setSpeedups(recs, "cold", "")
	return recs, nil
}
