package sched

// fixture_test.go pins the scheduler bit for bit. For the seeded inputs of
// this package's engine tests — the bundled designs under random sharing,
// wash and ban sets, the livelock sweeps, the concurrent-run controls, the
// storage scenarios and the parking decisions —
// testdata/sched_fixture.txt records each run's completed-ops count,
// error or ok, makespan, transport count and the SHA-256 of the
// JSON-encoded schedule. The fixture was recorded from the seed
// scheduler, and the engine reproduced every entry. Regenerate it (from
// the engine) only for a deliberate change of the scheduling policy:
//
//	go test ./internal/sched -run TestSchedFixture -update

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/sched_fixture.txt")

const fixturePath = "testdata/sched_fixture.txt"

// schedCase is one pinned scheduler input. Cases that share an engine
// share its pooled run state and candidate cache, as the tests they come
// from do.
type schedCase struct {
	id   string
	eng  *Engine
	ctrl *chip.Control
	p    Params
}

// newCase builds a fresh engine for one input.
func newCase(t *testing.T, id string, c *chip.Chip, g *assay.Graph, ctrl *chip.Control, p Params) schedCase {
	t.Helper()
	eng, err := NewEngine(c, g, p)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", id, err)
	}
	return schedCase{id: id, eng: eng, ctrl: ctrl, p: p}
}

// fixtureCases lists every pinned scheduler input in fixture order.
func fixtureCases(t *testing.T) []schedCase {
	var out []schedCase
	for _, d := range designs() {
		out = append(out, designCases(t, d.name, d.chip, d.graph)...)
	}
	for _, d := range designs() {
		out = append(out, livelockCases(t, d.name, d.chip)...)
	}
	crossing, _, _ := crossingCases(t)
	out = append(out, crossing...)
	_, concurrent := concurrentCases(t)
	out = append(out, concurrent...)
	return append(out, storageCases(t)...)
}

// fixtureLine renders one run: id, completed ops, the quoted error or ok,
// makespan, transport count and the SHA-256 of the JSON-encoded schedule.
func fixtureLine(id string, sch *Schedule, done int, err error) string {
	status := "ok"
	if err != nil {
		status = fmt.Sprintf("%q", err.Error())
	}
	js, _ := json.Marshal(sch) // ints and int slices only: cannot fail
	exec, transports := 0, 0
	if sch != nil {
		exec, transports = sch.ExecutionTime, len(sch.Transports)
	}
	return fmt.Sprintf("%s %d %s %d %d %x", id, done, status, exec, transports, sha256.Sum256(js))
}

// parkLine renders one parking decision: id and the chosen edge, or none.
func parkLine(id string, edge int, ok bool) string {
	if !ok {
		return id + " none"
	}
	return fmt.Sprintf("%s edge=%d", id, edge)
}

var (
	fixtureOnce    sync.Once
	fixtureLines   []string
	fixtureByID    map[string]string
	fixtureLoadErr error
)

// loadFixture reads the fixture once per test binary.
func loadFixture(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	fixtureOnce.Do(func() {
		f, err := os.Open(fixturePath)
		if err != nil {
			fixtureLoadErr = fmt.Errorf("%v (generate with -update)", err)
			return
		}
		defer f.Close()
		fixtureByID = map[string]string{}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fixtureLines = append(fixtureLines, line)
			fixtureByID[strings.Fields(line)[0]] = line
		}
		fixtureLoadErr = sc.Err()
	})
	if fixtureLoadErr != nil {
		t.Fatal(fixtureLoadErr)
	}
	return fixtureLines, fixtureByID
}

// checkFixture fails unless got (a fixtureLine or parkLine) equals the
// fixture's entry of the same id.
func checkFixture(t *testing.T, got string) {
	t.Helper()
	_, byID := loadFixture(t)
	id := strings.Fields(got)[0]
	want, ok := byID[id]
	if !ok {
		t.Fatalf("%s: no fixture entry (regenerate with -update)", id)
	}
	if got != want {
		t.Fatalf("%s differs from the fixture:\n got  %s\n want %s", id, got, want)
	}
}

// TestSchedFixture runs every pinned input through the engine and checks
// the fixture lists exactly their outcomes, in order. -update rewrites the
// fixture from the engine.
func TestSchedFixture(t *testing.T) {
	var got []string
	for _, c := range fixtureCases(t) {
		sch, done, err := c.eng.RunProgress(c.ctrl, c.p)
		got = append(got, fixtureLine(c.id, sch, done, err))
	}
	got = append(got, parkLines(t)...)
	if *updateFixture {
		body := "# id done_ops error_or_ok exec_time transports schedule_json_sha256\n" +
			"# park/* lines: id, then the parking edge chosen from that device node, or none\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(fixturePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), fixturePath)
		return
	}
	want, _ := loadFixture(t)
	if len(want) != len(got) {
		t.Fatalf("fixture has %d entries, the cases give %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("entry %d:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d entries differ from the fixture", bad, len(got))
	}
}
