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

// sameOutcome runs one control through the engine and the seed baseline
// and fails unless error text, progress and schedule all agree. It returns
// the engine's error and whether the livelock fast-forward ended the run.
func sameOutcome(t *testing.T, label string, eng *Engine, m *Metrics, ctrl *chip.Control, p Params) (error, bool) {
	t.Helper()
	before := m.Snapshot()
	got, gotDone, gotErr := eng.RunProgress(ctrl, p)
	fired := m.Snapshot().Sub(before).Livelocks > 0
	want, wantDone, wantErr := RunProgressBaseline(eng.Chip(), ctrl, eng.Assay(), p)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotDone != wantDone {
		t.Fatalf("%s: engine (%v, %d ops) vs baseline (%v, %d ops)", label, gotErr, gotDone, wantErr, wantDone)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: schedules differ", label)
	}
	if fired && (gotErr == nil || !strings.Contains(gotErr.Error(), "exceeded time horizon")) {
		t.Fatalf("%s: livelock fast-forward fired but the run ended with %v", label, gotErr)
	}
	return gotErr, fired
}

// TestLivelockMatchesBaseline checks the fast-forward against the full
// simulation of the seed scheduler. CPA runs on the three augmented chips
// under random sharing, with and without the wash model and random bans,
// each at several short horizons; the short horizons keep the baseline
// cheap while still letting many runs reach a repeated wedge.
func TestLivelockMatchesBaseline(t *testing.T) {
	maxTimes := []int{600, 900, 1300, 1800}
	const trials = 30
	var runs, horizon, livelocks atomic.Int64
	t.Run("designs", func(t *testing.T) {
		for _, d := range designs() {
			d := d
			t.Run(d.name, func(t *testing.T) {
				t.Parallel()
				g := assay.CPA()
				aug := augmented(t, d.chip, 4)
				rng := rand.New(rand.NewSource(31 + int64(len(d.name))))
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
							m := NewMetrics()
							eng.SetMetrics(m)
							for _, mt := range maxTimes {
								p.MaxTime = mt
								label := fmt.Sprintf("%s wash=%d banned=%v trial=%d MaxTime=%d", d.name, wash, banned, trial, mt)
								err, fired := sameOutcome(t, label, eng, m, ctrl, p)
								runs.Add(1)
								if err != nil && strings.Contains(err.Error(), "exceeded time horizon") {
									horizon.Add(1)
								}
								if fired {
									livelocks.Add(1)
								}
							}
						}
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

// TestLivelockCrossingEveryPhase sweeps every MaxTime across two periods
// of one livelocking control, starting at the cycle's first wedge. Below
// one period the run ends by simulation; from there on the fast-forward
// fires, and the horizon crossing lands at every phase of the cycle.
func TestLivelockCrossingEveryPhase(t *testing.T) {
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
		m := NewMetrics()
		eng.SetMetrics(m)
		for mt := start; mt <= start+2*period; mt++ {
			p.MaxTime, p.HasMaxTime = mt, true
			_, fired := sameOutcome(t, fmt.Sprintf("trial %d MaxTime=%d", trial, mt), eng, m, ctrl, p)
			if want := mt >= start+period; fired != want {
				t.Fatalf("trial %d MaxTime=%d: fast-forward fired=%v, want %v (cycle at t=%d, period %d)",
					trial, mt, fired, want, start, period)
			}
		}
		t.Logf("trial %d: cycle from t=%d with period %d; swept MaxTime %d..%d", trial, start, period, start, start+2*period)
		return
	}
	t.Fatalf("no livelocking control with period >= %d found", minPeriod)
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
