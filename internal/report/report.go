// Package report serializes DFT flow results for downstream consumption:
// a JSON document with the augmented architecture, the valve-sharing
// scheme and the complete test program, suitable for driving an actual
// test setup or for archiving experiment outputs.
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
)

// Document is the serialized form of a DFT flow result.
type Document struct {
	Chip        ChipInfo     `json:"chip"`
	TestPorts   TestPorts    `json:"test_ports"`
	Sharing     []SharePair  `json:"valve_sharing"`
	PathVectors []TestVector `json:"path_vectors"`
	CutVectors  []TestVector `json:"cut_vectors"`
	Execution   Execution    `json:"execution_times_s"`
	RuntimeMS   int64        `json:"flow_runtime_ms"`
	Solver      SolverInfo   `json:"solver"`
	// Leakage, when present, summarizes the quantitative leakage campaign
	// over the final cut vectors (sparse pressure engine).
	Leakage *LeakageInfo `json:"leakage,omitempty"`
	// Diagnosis, when present, summarizes the adaptive fault-diagnosis
	// campaign over the final test set.
	Diagnosis *DiagnosisInfo `json:"diagnosis,omitempty"`
	// Reconfiguration, when present, summarizes the test-around-fault
	// reconfiguration campaign over the diagnosed suspect sets.
	Reconfiguration *ReconfigInfo `json:"reconfiguration,omitempty"`
	// Stats, when present, is the flow's per-stage runtime breakdown
	// (populated by the CLIs' -stats flag; see BuildStats).
	Stats *StatsDocument `json:"stage_stats,omitempty"`
}

// DiagnosisInfo is the serialized core.DiagnosisSummary: how tightly the
// adaptive campaign localized each modeled fault and what it cost
// against the exhaustive-replay baseline.
type DiagnosisInfo struct {
	Faults            int     `json:"faults"`
	Localized         int     `json:"localized"`
	ExhaustiveVectors int     `json:"exhaustive_vectors"`
	TotalVectors      int     `json:"total_vectors_applied"`
	MaxVectors        int     `json:"max_vectors_per_fault"`
	MeanVectors       float64 `json:"mean_vectors_per_fault"`
	MaxSuspects       int     `json:"max_suspect_set"`
	MeanSuspects      float64 `json:"mean_suspect_set"`
	Degraded          int     `json:"degraded"`
}

// ReconfigInfo is the serialized core.ReconfigSummary: whether the assay
// survives each diagnosed fault with the suspects banned, and at what
// execution-time penalty.
type ReconfigInfo struct {
	SuspectSets int     `json:"suspect_sets"`
	Groups      int     `json:"ban_groups"`
	Feasible    int     `json:"feasible"`
	Infeasible  int     `json:"infeasible"`
	Failed      int     `json:"failed"`
	Relaxed     int     `json:"relaxed"`
	Degraded    int     `json:"degraded"`
	Baseline    int     `json:"baseline_s"`
	MaxPenalty  int     `json:"max_penalty_s"`
	MeanPenalty float64 `json:"mean_penalty_s"`
}

// SolverInfo records the degradation provenance of the flow: which tier
// of the augmentation chain produced the configuration, whether the flow
// degraded or was interrupted, and what every tier attempt did.
type SolverInfo struct {
	Tier         int             `json:"tier"`
	TierName     string          `json:"tier_name"`
	Reason       string          `json:"reason"`
	Degraded     bool            `json:"degraded"`
	Interrupted  bool            `json:"interrupted"`
	CoverageFull bool            `json:"coverage_full"`
	Attempts     []SolverAttempt `json:"attempts,omitempty"`
}

// LeakageInfo is the serialized form of fault.LeakageReport: how many
// closed-valve leaks the cut vectors expose under the quantitative
// pressure model. The engine's solve counters are left to the -stats
// stage counters: their warm/cold split depends on the worker count.
type LeakageInfo struct {
	Examined     int   `json:"examined"`
	Detectable   int   `json:"detectable"`
	Undetectable []int `json:"undetectable,omitempty"`
	Vectors      int   `json:"vectors"`
}

// SolverAttempt is one tier execution of the augmentation chain.
type SolverAttempt struct {
	Tier      int    `json:"tier"`
	Name      string `json:"name"`
	Reason    string `json:"reason"`
	Error     string `json:"error,omitempty"`
	Injected  string `json:"injected,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// ChipInfo describes the augmented architecture.
type ChipInfo struct {
	Name           string      `json:"name"`
	GridW          int         `json:"grid_w"`
	GridH          int         `json:"grid_h"`
	Devices        []Device    `json:"devices"`
	Ports          []Port      `json:"ports"`
	OriginalValves int         `json:"original_valves"`
	DFTValves      []ValveInfo `json:"dft_valves"`
}

// Device is one functional unit.
type Device struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	X    int    `json:"x"`
	Y    int    `json:"y"`
}

// Port is one external port.
type Port struct {
	Name string `json:"name"`
	X    int    `json:"x"`
	Y    int    `json:"y"`
}

// ValveInfo locates a valve's channel segment on the grid.
type ValveInfo struct {
	ID int `json:"id"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
	X2 int `json:"x2"`
	Y2 int `json:"y2"`
}

// TestPorts names the single source and meter.
type TestPorts struct {
	Source string `json:"source"`
	Meter  string `json:"meter"`
}

// SharePair records one control-line sharing. OriginalValve is -1 when the
// DFT valve received its own control line (partial-sharing fallback).
type SharePair struct {
	DFTValve      int `json:"dft_valve"`
	OriginalValve int `json:"original_valve"`
}

// TestVector is one vector of the test program. For kind "path" the listed
// valves are driven open (all others closed); for kind "cut" they are
// driven closed (all others open).
type TestVector struct {
	Kind         string `json:"kind"`
	Valves       []int  `json:"valves"`
	ExpectsFlow  bool   `json:"expect_meter_pressure"`
	DetectsFault string `json:"detects"`
}

// Execution compares the schedule lengths.
type Execution struct {
	Original       int `json:"original"`
	DFTNoPSO       int `json:"dft_without_pso"`
	DFTPSO         int `json:"dft_with_pso"`
	DFTIndependent int `json:"dft_independent_control"`
}

// Build assembles the document from a flow result.
func Build(res *core.Result) Document {
	c := res.Aug.Chip
	doc := Document{
		Chip: ChipInfo{
			Name:           c.Name,
			GridW:          c.Grid.W,
			GridH:          c.Grid.H,
			OriginalValves: c.NumOriginalValves(),
		},
		TestPorts: TestPorts{
			Source: c.Ports[res.Aug.Source].Name,
			Meter:  c.Ports[res.Aug.Meter].Name,
		},
		Execution: Execution{
			Original:       res.ExecOriginal,
			DFTNoPSO:       res.ExecNoPSO,
			DFTPSO:         res.ExecPSO,
			DFTIndependent: res.ExecIndependent,
		},
		RuntimeMS: res.Runtime.Milliseconds(),
		Solver: SolverInfo{
			Tier:         res.Solve.Tier,
			TierName:     res.Solve.Name,
			Reason:       string(res.Solve.Reason),
			Degraded:     res.Solve.Degraded,
			Interrupted:  res.Interrupted,
			CoverageFull: res.CoverageFull,
		},
	}
	if l := res.Leakage; l != nil {
		doc.Leakage = &LeakageInfo{
			Examined:     l.Examined,
			Detectable:   l.Detectable,
			Undetectable: append([]int(nil), l.Undetectable...),
			Vectors:      l.Vectors,
		}
	}
	if d := res.Diagnosis; d != nil {
		doc.Diagnosis = &DiagnosisInfo{
			Faults:            d.Faults,
			Localized:         d.Localized,
			ExhaustiveVectors: d.ExhaustiveVectors,
			TotalVectors:      d.TotalVectors,
			MaxVectors:        d.MaxVectors,
			MeanVectors:       d.MeanVectors,
			MaxSuspects:       d.MaxSuspects,
			MeanSuspects:      d.MeanSuspects,
			Degraded:          d.Degraded,
		}
	}
	if r := res.Reconfiguration; r != nil {
		doc.Reconfiguration = &ReconfigInfo{
			SuspectSets: r.SuspectSets,
			Groups:      r.Groups,
			Feasible:    r.Feasible,
			Infeasible:  r.Infeasible,
			Failed:      r.Failed,
			Relaxed:     r.Relaxed,
			Degraded:    r.Degraded,
			Baseline:    r.Baseline,
			MaxPenalty:  r.MaxPenalty,
			MeanPenalty: r.MeanPenalty,
		}
	}
	for _, a := range res.Solve.Attempts {
		doc.Solver.Attempts = append(doc.Solver.Attempts, SolverAttempt{
			Tier:      a.Tier,
			Name:      a.Name,
			Reason:    string(a.Reason),
			Error:     a.Error,
			Injected:  string(a.Injected),
			ElapsedMS: a.Elapsed.Milliseconds(),
		})
	}
	for _, d := range c.Devices {
		pos := c.Grid.CoordOf(d.Node)
		doc.Chip.Devices = append(doc.Chip.Devices, Device{Name: d.Name, Kind: d.Kind.String(), X: pos.X, Y: pos.Y})
	}
	for _, p := range c.Ports {
		pos := c.Grid.CoordOf(p.Node)
		doc.Chip.Ports = append(doc.Chip.Ports, Port{Name: p.Name, X: pos.X, Y: pos.Y})
	}
	for _, v := range c.Valves() {
		if !v.DFT {
			continue
		}
		a, b := c.Grid.EdgeEndpoints(v.Edge)
		doc.Chip.DFTValves = append(doc.Chip.DFTValves, ValveInfo{ID: v.ID, X1: a.X, Y1: a.Y, X2: b.X, Y2: b.Y})
	}
	for i, p := range res.Partners {
		doc.Sharing = append(doc.Sharing, SharePair{DFTValve: c.NumOriginalValves() + i, OriginalValve: p})
	}
	for _, v := range res.PathVectors {
		doc.PathVectors = append(doc.PathVectors, vectorJSON(v))
	}
	for _, v := range res.CutVectors {
		doc.CutVectors = append(doc.CutVectors, vectorJSON(v))
	}
	return doc
}

func vectorJSON(v fault.Vector) TestVector {
	out := TestVector{Valves: append([]int(nil), v.Valves...)}
	if v.Kind == fault.PathVector {
		out.Kind = "path"
		out.ExpectsFlow = true
		out.DetectsFault = "stuck-at-0 on listed valves"
	} else {
		out.Kind = "cut"
		out.ExpectsFlow = false
		out.DetectsFault = "stuck-at-1 on listed valves"
	}
	return out
}

// WriteJSON writes the document as indented JSON.
func WriteJSON(w io.Writer, res *core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Build(res))
}

// Summary writes a one-paragraph human summary.
func Summary(w io.Writer, res *core.Result) {
	c := res.Aug.Chip
	fmt.Fprintf(w, "%s: +%d DFT valves (%d sharing control lines), test with source %s and meter %s using %d vectors; execution %d s -> %d s (original -> DFT+PSO), flow runtime %v\n",
		c.Name, res.NumDFTValves, res.NumShared,
		c.Ports[res.Aug.Source].Name, c.Ports[res.Aug.Meter].Name,
		res.NumTestVectors, res.ExecOriginal, res.ExecPSO, res.Runtime)
	if d := res.Diagnosis; d != nil {
		fmt.Fprintf(w, "diagnosis: %d/%d faults localized, %.1f vectors/fault mean (max %d, exhaustive %d), %.2f suspects/fault mean\n",
			d.Localized, d.Faults, d.MeanVectors, d.MaxVectors, d.ExhaustiveVectors, d.MeanSuspects)
	}
	if r := res.Reconfiguration; r != nil {
		fmt.Fprintf(w, "reconfiguration: %d/%d ban groups feasible (%d infeasible, %d relaxed), penalty mean %.1f s / max %d s over baseline %d s\n",
			r.Feasible, r.Groups, r.Infeasible, r.Relaxed, r.MeanPenalty, r.MaxPenalty, r.Baseline)
	}
}

// Decode parses a JSON document (for tooling round-trips).
func Decode(r io.Reader) (Document, error) {
	var doc Document
	err := json.NewDecoder(r).Decode(&doc)
	return doc, err
}

// Validate sanity-checks a decoded document.
func (d Document) Validate() error {
	if d.Chip.Name == "" {
		return fmt.Errorf("report: missing chip name")
	}
	if d.TestPorts.Source == "" || d.TestPorts.Meter == "" {
		return fmt.Errorf("report: missing test ports")
	}
	if len(d.Sharing) != len(d.Chip.DFTValves) {
		return fmt.Errorf("report: %d sharing pairs for %d DFT valves", len(d.Sharing), len(d.Chip.DFTValves))
	}
	if len(d.PathVectors) == 0 {
		return fmt.Errorf("report: empty test program")
	}
	// Degraded repair-tier results may lack a complete stuck-at-1 cover;
	// a full-coverage document must have cut vectors.
	if len(d.CutVectors) == 0 && d.Solver.CoverageFull {
		return fmt.Errorf("report: empty cut-vector set in a full-coverage test program")
	}
	for _, v := range d.PathVectors {
		if v.Kind != "path" || !v.ExpectsFlow {
			return fmt.Errorf("report: malformed path vector")
		}
	}
	for _, v := range d.CutVectors {
		if v.Kind != "cut" || v.ExpectsFlow {
			return fmt.Errorf("report: malformed cut vector")
		}
	}
	return nil
}
