package main

// harness.go is what every bench mode shares: the report schema, the
// timing loop, speedups against a reference variant, the stderr summary,
// gate enforcement, the -baseline regression check and the JSON writer.
// A mode only builds its inputs and returns records, so a gate cannot be
// soft in one mode and hard in another.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
)

// Doc is the report every mode writes (BENCH_<mode>.json).
type Doc struct {
	Mode       string   `json:"mode"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Records    []Record `json:"records"`
}

// Record is one variant's measurement on one case. An op is whatever the
// mode times as a unit; ns_op is per op, and bytes_op/allocs_op are left
// out when zero or, for legs timed once, not measured.
type Record struct {
	Case       string `json:"case"`
	Variant    string `json:"variant"`
	Iterations int    `json:"iterations"`
	NsOp       int64  `json:"ns_op"`
	BytesOp    int64  `json:"bytes_op,omitempty"`
	AllocsOp   int64  `json:"allocs_op,omitempty"`
	// Speedup is the reference variant's cost over this one's (setSpeedups).
	Speedup float64 `json:"speedup,omitempty"`
	// Gated marks a speedup -baseline holds against the committed report.
	Gated bool `json:"gated,omitempty"`
	// Counters holds the leg's other numbers: work done, rates, memory.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Gates holds the leg's correctness checks; a false one fails the run.
	Gates map[string]bool `json:"gates,omitempty"`
}

// baselineTolerance is the allowed regression: a fresh gated speedup may
// drop to this fraction of the committed one before -baseline fails.
// Generous on purpose — CI machines are slower and noisier than the
// machines baselines are recorded on; the gate catches algorithmic
// regressions (2x+), not scheduling jitter.
const baselineTolerance = 0.5

// measure times op with testing.Benchmark — one run, then as many as fit
// in a second — and returns the record for (cs, variant). The first error
// op returns ends the loop and is returned.
func measure(cs, variant string, op func() error) (Record, error) {
	var err error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err = op(); err != nil {
				b.FailNow()
			}
		}
	})
	if err != nil {
		return Record{}, fmt.Errorf("%s %s: %w", cs, variant, err)
	}
	return Record{
		Case:       cs,
		Variant:    variant,
		Iterations: br.N,
		NsOp:       br.NsPerOp(),
		BytesOp:    br.AllocedBytesPerOp(),
		AllocsOp:   br.AllocsPerOp(),
	}, nil
}

// setSpeedups sets each record's speedup to the cost of the variant named
// ref on the same case over its own. Cost is ns per op, or ns per unit of
// the counter named per where variants do different amounts of work per
// op (branch-and-bound nodes, suite vectors).
func setSpeedups(recs []Record, ref, per string) {
	cost := func(r Record) float64 {
		if per == "" {
			return float64(r.NsOp)
		}
		if r.Counters[per] <= 0 {
			return 0
		}
		return float64(r.NsOp) / r.Counters[per]
	}
	refCost := make(map[string]float64)
	for _, r := range recs {
		if r.Variant == ref {
			refCost[r.Case] = cost(r)
		}
	}
	for i := range recs {
		if base, c := refCost[recs[i].Case], cost(recs[i]); recs[i].Variant != ref && base > 0 && c > 0 {
			recs[i].Speedup = base / c
		}
	}
}

// report prints one line per record to w, writes doc to out ("" =
// stdout), and returns an error naming every false gate and, given the
// path of a committed report, every gated speedup that fell below its
// floor there. The report is written even when a gate fails, so a failed
// run leaves its numbers behind.
func report(w io.Writer, doc Doc, out, baseline string) error {
	var errs []error
	for _, r := range doc.Records {
		printRecord(w, r)
		for _, g := range sortedKeys(r.Gates) {
			if !r.Gates[g] {
				errs = append(errs, fmt.Errorf("gate %s failed: %s %s", g, r.Case, r.Variant))
			}
		}
	}
	if err := writeDoc(out, doc); err != nil {
		return err
	}
	if baseline != "" {
		base, err := readDoc(baseline)
		if err == nil {
			err = checkBaseline(w, doc, base)
		}
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// printRecord writes r's one-line summary: timing, speedup, counters and
// gates.
func printRecord(w io.Writer, r Record) {
	fmt.Fprintf(w, "%-20s %-12s %13d ns/op", r.Case, r.Variant, r.NsOp)
	if r.AllocsOp > 0 {
		fmt.Fprintf(w, " %11d B/op %9d allocs/op", r.BytesOp, r.AllocsOp)
	}
	if r.Speedup > 0 {
		fmt.Fprintf(w, " %8.2fx", r.Speedup)
	}
	for _, k := range sortedKeys(r.Counters) {
		fmt.Fprintf(w, " %s=%.6g", k, r.Counters[k])
	}
	for _, k := range sortedKeys(r.Gates) {
		fmt.Fprintf(w, " %s=%t", k, r.Gates[k])
	}
	fmt.Fprintln(w)
}

// checkBaseline holds every gated speedup of doc to baselineTolerance of
// the same record's speedup in base, the committed report of the same
// mode. A report of another mode, or one without a speedup for a gated
// record, fails: a baseline that compares nothing must not pass.
func checkBaseline(w io.Writer, doc, base Doc) error {
	if base.Mode != doc.Mode {
		return fmt.Errorf("baseline is a %q report, not %q", base.Mode, doc.Mode)
	}
	committed := make(map[[2]string]float64)
	for _, r := range base.Records {
		committed[[2]string{r.Case, r.Variant}] = r.Speedup
	}
	var errs []error
	for _, r := range doc.Records {
		if !r.Gated {
			continue
		}
		want := committed[[2]string{r.Case, r.Variant}]
		switch {
		case want <= 0:
			errs = append(errs, fmt.Errorf("baseline has no speedup for %s %s", r.Case, r.Variant))
		case r.Speedup < want*baselineTolerance:
			errs = append(errs, fmt.Errorf("baseline gate failed: %s %s %.2fx is below %.0f%% of committed %.2fx",
				r.Case, r.Variant, r.Speedup, 100*baselineTolerance, want))
		default:
			fmt.Fprintf(w, "baseline gate: %s %s %.2fx vs committed %.2fx (floor %.0f%%) ok\n",
				r.Case, r.Variant, r.Speedup, want, 100*baselineTolerance)
		}
	}
	return errors.Join(errs...)
}

// writeDoc writes doc as indented JSON to path ("" = stdout). A failed
// write or close is an error, so a truncated report never passes.
func writeDoc(path string, doc Doc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readDoc decodes a report written by writeDoc.
func readDoc(path string) (Doc, error) {
	var doc Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
