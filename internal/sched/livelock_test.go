package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

// checkLivelockCase runs one case through the engine and fails if the run
// differs from the fixture, or if the fast-forward fired on a run that did
// not end with its horizon error. It returns the engine's error and
// whether the livelock fast-forward ended the run (m is attached to the
// case's engine).
func checkLivelockCase(t *testing.T, c schedCase, m *Metrics) (error, bool) {
	t.Helper()
	before := m.Snapshot()
	sch, done, err := c.eng.RunProgress(c.ctrl, c.p)
	fired := m.Snapshot().Sub(before).Livelocks > 0
	checkFixture(t, fixtureLine(c.id, sch, done, err))
	if fired && (err == nil || !strings.Contains(err.Error(), "exceeded time horizon")) {
		t.Fatalf("%s: livelock fast-forward fired but the run ended with %v", c.id, err)
	}
	return err, fired
}

// livelockCases draws one design's CPA runs on its augmented chip under
// random sharing, with and without the wash model and random bans, each
// at several short horizons; the four horizons of a control share one
// engine. The short horizons keep a full simulation cheap while still
// letting many runs reach a repeated wedge.
func livelockCases(t *testing.T, name string, c *chip.Chip) []schedCase {
	maxTimes := []int{600, 900, 1300, 1800}
	const trials = 30
	g := assay.CPA()
	aug := augmented(t, c, 4)
	rng := rand.New(rand.NewSource(31 + int64(len(name))))
	var out []schedCase
	for wash := 0; wash <= 1; wash++ {
		for _, banned := range []bool{false, true} {
			for trial := 0; trial < trials; trial++ {
				ctrl := randControl(t, rng, aug)
				p := Params{WashTimePerEdge: wash, HasMaxTime: true}
				if banned {
					p.BanClosed = randBans(rng, aug, 2)
					p.BanOpen = randBans(rng, aug, 2)
				}
				eng, err := NewEngine(aug, g, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, mt := range maxTimes {
					p.MaxTime = mt
					id := fmt.Sprintf("livelock/%s/wash=%d/banned=%v/trial=%d/MaxTime=%d", name, wash, banned, trial, mt)
					out = append(out, schedCase{id: id, eng: eng, ctrl: ctrl, p: p})
				}
			}
		}
	}
	return out
}

// TestLivelockMatchesBaseline checks the fast-forward against the seed
// scheduler's recorded full simulations of every design's livelockCases.
func TestLivelockMatchesBaseline(t *testing.T) {
	var runs, horizon, livelocks atomic.Int64
	t.Run("designs", func(t *testing.T) {
		for _, d := range designs() {
			d := d
			t.Run(d.name, func(t *testing.T) {
				t.Parallel()
				m := NewMetrics()
				for _, c := range livelockCases(t, d.name, d.chip) {
					c.eng.SetMetrics(m) // a control's four horizons share an engine; re-attaching is harmless
					err, fired := checkLivelockCase(t, c, m)
					runs.Add(1)
					if err != nil && strings.Contains(err.Error(), "exceeded time horizon") {
						horizon.Add(1)
					}
					if fired {
						livelocks.Add(1)
					}
				}
			})
		}
	})
	t.Logf("%d runs, %d horizon failures, %d ended by the livelock fast-forward", runs.Load(), horizon.Load(), livelocks.Load())
	if livelocks.Load() == 0 {
		t.Fatal("no run reached a repeated wedge; the fast-forward went untested")
	}
}

// cycleOf reads the proved cycle off a runState the fast-forward has just
// ended: the earliest recorded wedge equal to the repeated state (left
// unrecorded at the tail of wedgeWords) and the period.
func cycleOf(rs *runState) (start, period int, ok bool) {
	if len(rs.wedges) == 0 {
		return 0, 0, false
	}
	tail := rs.wedgeWords[rs.wedges[len(rs.wedges)-1].end:]
	for _, w := range rs.wedges {
		if equalInts(rs.wedgeWords[w.off:w.end], tail) {
			return w.now, rs.now - w.now, true
		}
	}
	return 0, 0, false
}

// crossingCases finds the first of 60 random controls on the augmented
// mRNA chip whose run livelocks with a period of at least 16 s and sweeps
// every MaxTime across two periods, starting at the cycle's first wedge.
// It returns the sweep (sharing one engine), the cycle start and the
// period.
func crossingCases(t *testing.T) ([]schedCase, int, int) {
	const minPeriod = 16
	g := assay.CPA()
	aug := augmented(t, chip.MRNA(), 4)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		ctrl := randControl(t, rng, aug)
		p := Params{WashTimePerEdge: trial % 2}
		if trial%4 >= 2 {
			p.BanClosed = randBans(rng, aug, 2)
			p.BanOpen = randBans(rng, aug, 2)
		}
		eng, err := NewEngine(aug, g, p)
		if err != nil {
			t.Fatal(err)
		}
		rs := newRunState(eng)
		rs.reset(ctrl, p.withDefaults(), nil)
		if _, _, err := rs.run(); err == nil {
			continue
		}
		start, period, ok := cycleOf(rs)
		if !ok || period < minPeriod {
			continue
		}
		var out []schedCase
		for mt := start; mt <= start+2*period; mt++ {
			p.MaxTime, p.HasMaxTime = mt, true
			out = append(out, schedCase{id: fmt.Sprintf("crossing/mRNA/trial=%d/MaxTime=%d", trial, mt), eng: eng, ctrl: ctrl, p: p})
		}
		return out, start, period
	}
	t.Fatalf("no livelocking control with period >= %d found", minPeriod)
	return nil, 0, 0
}

// TestLivelockCrossingEveryPhase runs the crossingCases sweep. Below one
// period the run ends by simulation; from there on the fast-forward
// fires, and the horizon crossing lands at every phase of the cycle.
func TestLivelockCrossingEveryPhase(t *testing.T) {
	cases, start, period := crossingCases(t)
	m := NewMetrics()
	cases[0].eng.SetMetrics(m)
	for _, c := range cases {
		_, fired := checkLivelockCase(t, c, m)
		if want := c.p.MaxTime >= start+period; fired != want {
			t.Fatalf("%s: fast-forward fired=%v, want %v (cycle at t=%d, period %d)",
				c.id, fired, want, start, period)
		}
	}
	t.Logf("%s: cycle from t=%d with period %d; swept MaxTime %d..%d", cases[0].id, start, period, start, start+2*period)
}

// Wedge-state classes for TestWedgeStateComplete.
const (
	recorded    = "recorded"     // part of the wedge state (or fixed at every wedge)
	derived     = "derived"      // a function of recorded fields
	runConstant = "run-constant" // fixed for the whole run
	scratch     = "scratch"      // working memory that carries nothing from one call to the next
	output      = "output"       // written, never read back by the loop
)

// TestWedgeStateComplete guards the livelock proof against new state: the
// fast-forward is only exact if every field that can steer the rest of a
// run from a wedge is part of encodeWedge. Each field of the run state and
// of the per-op, per-product and per-task records must be classified; a
// new field fails here until someone decides where it belongs (and, if it
// is recorded, encodes it).
func TestWedgeStateComplete(t *testing.T) {
	classes := []struct {
		typ    any
		fields map[string]string
	}{
		{runState{}, map[string]string{
			"eng": runConstant, "ctrl": runConstant, "params": runConstant, "ctx": runConstant,
			"ops": recorded, "products": recorded, "tasks": recorded,
			"active":     recorded, // asserted empty at every wedge
			"deviceBusy": recorded, "portBusy": recorded,
			"edgeBusy":  recorded, // asserted all false at every wedge
			"busyCount": derived,
			"lastFluid": recorded, // only read, and only recorded, when WashTimePerEdge > 0
			"holderOf":  derived, "heldCount": derived,
			"sharedValve": runConstant, "lineSize": runConstant,
			"doneOps": derived,
			"now":     recorded, // kept beside each wedge; the state holds offsets from it
			"recOps":  output, "recTransports": output,
			"path": scratch, "pathBest": scratch, "pathOut": scratch, "penalty": scratch, "penTouch": scratch,
			"reqOpenEp": scratch, "reqClosedEp": scratch, "touchedEp": scratch, "touched": scratch,
			"ownEp": scratch, "prodMoveEp": scratch, "lineOpenEp": scratch, "snapEpoch": scratch, "memberEp": scratch,
			"bfs": scratch, "dist": scratch, "dist2": scratch, "evacBuf": scratch,
			"phaseBuf":  scratch,
			"wedgeSeen": scratch, "wedges": scratch, "wedgeWords": scratch, "wedgePhases": scratch, "events": scratch,
		}},
		{opCtl{}, map[string]string{
			"phase": recorded, "device": recorded, "isPort": recorded, "pending": recorded,
			"finish":   recorded, // as finish−now while running
			"start":    output,
			"priority": runConstant,
		}},
		{productCtl{}, map[string]string{
			"exists": recorded, "loc": recorded, "totalConsumers": recorded, "started": recorded,
			"arrived": recorded, "holdsDevice": recorded, "holdsPort": recorded, "moving": recorded,
		}},
		{engTask{}, map[string]string{
			"producer": recorded, "consumer": recorded, "started": recorded,
			"done": recorded, // selects the live tasks that are encoded
		}},
	}
	for _, c := range classes {
		typ := reflect.TypeOf(c.typ)
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			switch c.fields[name] {
			case recorded, derived, runConstant, scratch, output:
			default:
				t.Errorf("%s.%s is not classified for the livelock proof", typ.Name(), name)
			}
		}
		for name := range c.fields {
			if !seen[name] {
				t.Errorf("%s.%s is classified but no longer exists", typ.Name(), name)
			}
		}
	}
}
