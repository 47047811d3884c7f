package loader

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/sched"
)

const chipJSON = `{
  "name": "json_chip",
  "grid_w": 6, "grid_h": 4,
  "devices": [
    {"name": "M1", "kind": "mixer", "x": 1, "y": 1},
    {"name": "D1", "kind": "detector", "x": 4, "y": 1}
  ],
  "ports": [
    {"name": "P0", "x": 0, "y": 1},
    {"name": "P1", "x": 5, "y": 1}
  ],
  "channels": [
    [[0,1],[1,1]],
    [[1,1],[2,1],[3,1],[4,1]],
    [[4,1],[5,1]]
  ]
}`

const assayJSON = `{
  "name": "json_assay",
  "ops": [
    {"name": "mix1", "kind": "mix", "duration": 40},
    {"name": "read1", "kind": "detect", "duration": 20}
  ],
  "deps": [[0,1]]
}`

func TestReadChip(t *testing.T) {
	c, err := ReadChip(strings.NewReader(chipJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "json_chip" || c.NumValves() != 5 || len(c.Ports) != 2 {
		t.Fatalf("chip loaded wrong: %v", c)
	}
	if st := c.Stats(); st.Mixers != 1 || st.Detectors != 1 {
		t.Fatal("device kinds wrong")
	}
}

func TestReadAssay(t *testing.T) {
	g, err := ReadAssay(strings.NewReader(assayJSON))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumOps() != 2 || g.CountKind(assay.Mix) != 1 {
		t.Fatalf("assay loaded wrong: %v", g)
	}
	if len(g.Succs(0)) != 1 || g.Succs(0)[0] != 1 {
		t.Fatal("dependency lost")
	}
}

func TestLoadedDesignSchedules(t *testing.T) {
	c, err := ReadChip(strings.NewReader(chipJSON))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadAssay(strings.NewReader(assayJSON))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sched.Run(c, nil, g, sched.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateSchedule(c, g, sch); err != nil {
		t.Fatal(err)
	}
}

func TestChipRoundTrip(t *testing.T) {
	orig := chip.IVD()
	var buf bytes.Buffer
	if err := WriteChip(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumValves() != orig.NumValves() || len(back.Ports) != len(orig.Ports) ||
		len(back.Devices) != len(orig.Devices) {
		t.Fatalf("round trip lost structure: %v vs %v", back, orig)
	}
}

func TestAssayRoundTrip(t *testing.T) {
	orig := assay.CPA()
	var buf bytes.Buffer
	if err := WriteAssay(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAssay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumOps() != orig.NumOps() || back.CriticalPath() != orig.CriticalPath() {
		t.Fatal("assay round trip changed the graph")
	}
}

func TestRejectBadKinds(t *testing.T) {
	if _, err := ReadChip(strings.NewReader(strings.Replace(chipJSON, "mixer", "blender", 1))); err == nil {
		t.Fatal("unknown device kind must fail")
	}
	if _, err := ReadAssay(strings.NewReader(strings.Replace(assayJSON, `"kind": "mix"`, `"kind": "stir"`, 1))); err == nil {
		t.Fatal("unknown op kind must fail")
	}
}

func TestRejectBadStructures(t *testing.T) {
	if _, err := ReadChip(strings.NewReader(`{"name":"x","grid_w":1,"grid_h":9}`)); err == nil {
		t.Fatal("tiny grid must fail")
	}
	if _, err := ReadAssay(strings.NewReader(`{"name":"x","ops":[{"name":"a","kind":"mix","duration":5}],"deps":[[0,0]]}`)); err == nil {
		t.Fatal("self-dependency must fail")
	}
	if _, err := ReadAssay(strings.NewReader(`{"name":"x","ops":[{"name":"a","kind":"mix","duration":0}]}`)); err == nil {
		t.Fatal("zero duration must fail")
	}
	if _, err := ReadChip(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage must fail")
	}
	if _, err := ReadChip(strings.NewReader(`{"name":"x","grid_w":5,"grid_h":5,"ports":[{"name":"P0","x":0,"y":1},{"name":"P1","x":0,"y":2}],"devices":[{"name":"M","kind":"mixer","x":1,"y":1}],"channels":[[[0,1]]]}`)); err == nil {
		t.Fatal("single-coordinate channel must fail")
	}
}
