package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/pso"
)

func flowResult(t *testing.T, workers int) *core.Result {
	t.Helper()
	res, err := core.RunDFTFlow(chip.IVD(), assay.IVD(), core.Options{
		Outer:   pso.Config{Particles: 3, Iterations: 4},
		Inner:   pso.Config{Particles: 3, Iterations: 4},
		Seed:    11,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildDocument(t *testing.T) {
	res := flowResult(t, 0)
	doc := Build(res)
	if doc.Chip.Name != "IVD_chip" {
		t.Fatalf("chip name %q", doc.Chip.Name)
	}
	if doc.Chip.OriginalValves != 12 {
		t.Fatalf("original valves %d", doc.Chip.OriginalValves)
	}
	if len(doc.Chip.DFTValves) != res.NumDFTValves {
		t.Fatalf("dft valves %d vs %d", len(doc.Chip.DFTValves), res.NumDFTValves)
	}
	if len(doc.Sharing) != res.NumDFTValves {
		t.Fatalf("sharing pairs %d", len(doc.Sharing))
	}
	if len(doc.PathVectors)+len(doc.CutVectors) != res.NumTestVectors {
		t.Fatal("vector counts mismatch")
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDocumentWorkerInvariant: a flow's JSON document is the same at any
// worker count once the wall-clock fields are masked.
func TestDocumentWorkerInvariant(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		doc := Build(flowResult(t, workers))
		doc.RuntimeMS = 0
		for i := range doc.Solver.Attempts {
			doc.Solver.Attempts[i].ElapsedMS = 0
		}
		got, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("workers=%d document differs from workers=1 at line %d: %q", workers, i+1, g[i])
			}
		}
		if len(g) != len(w) {
			t.Fatalf("workers=%d document has %d lines, workers=1 %d", workers, len(g), len(w))
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	res := flowResult(t, 0)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"valve_sharing"`) {
		t.Fatal("JSON missing valve_sharing key")
	}
	doc, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if doc.Execution.DFTPSO != res.ExecPSO {
		t.Fatalf("exec round trip: %d vs %d", doc.Execution.DFTPSO, res.ExecPSO)
	}
	if doc.TestPorts.Source == doc.TestPorts.Meter {
		t.Fatal("source and meter must differ")
	}
}

// A flow run with diagnosis and reconfiguration enabled must surface
// both blocks in the document; without the options the keys are omitted
// entirely.
func TestDiagnosisBlocksRoundTrip(t *testing.T) {
	res, err := core.RunDFTFlow(chip.IVD(), assay.IVD(), core.Options{
		Outer:       pso.Config{Particles: 3, Iterations: 4},
		Inner:       pso.Config{Particles: 3, Iterations: 4},
		Seed:        11,
		Diagnose:    true,
		Reconfigure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"diagnosis"`) || !strings.Contains(buf.String(), `"reconfiguration"`) {
		t.Fatal("JSON missing diagnosis/reconfiguration blocks")
	}
	doc, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Diagnosis == nil || doc.Diagnosis.Faults != res.Diagnosis.Faults ||
		doc.Diagnosis.Localized != res.Diagnosis.Localized {
		t.Fatalf("diagnosis round trip: %+v vs %+v", doc.Diagnosis, res.Diagnosis)
	}
	if doc.Reconfiguration == nil || doc.Reconfiguration.Groups != res.Reconfiguration.Groups ||
		doc.Reconfiguration.Feasible != res.Reconfiguration.Feasible {
		t.Fatalf("reconfiguration round trip: %+v vs %+v", doc.Reconfiguration, res.Reconfiguration)
	}
	// Without the options the keys must be absent.
	plain := flowResult(t, 0)
	buf.Reset()
	if err := WriteJSON(&buf, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"diagnosis"`) || strings.Contains(buf.String(), `"reconfiguration"`) {
		t.Fatal("optional blocks present without the options")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	res := flowResult(t, 0)
	doc := Build(res)
	bad := doc
	bad.Chip.Name = ""
	if bad.Validate() == nil {
		t.Fatal("missing name must fail")
	}
	bad = doc
	bad.Sharing = doc.Sharing[:0]
	if len(doc.Chip.DFTValves) > 0 && bad.Validate() == nil {
		t.Fatal("sharing/valve mismatch must fail")
	}
	bad = doc
	bad.PathVectors = nil
	if bad.Validate() == nil {
		t.Fatal("empty program must fail")
	}
	bad = Build(res)
	bad.PathVectors[0].Kind = "cut"
	if bad.Validate() == nil {
		t.Fatal("malformed path vector must fail")
	}
	bad = Build(res)
	bad.CutVectors[0].ExpectsFlow = true
	if bad.Validate() == nil {
		t.Fatal("malformed cut vector must fail")
	}
	bad = Build(res)
	bad.TestPorts.Meter = ""
	if bad.Validate() == nil {
		t.Fatal("missing meter must fail")
	}
}
