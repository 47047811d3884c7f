package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSetSpeedupsAgainstReference(t *testing.T) {
	recs := []Record{
		{Case: "a", Variant: "new", NsOp: 100},
		{Case: "a", Variant: "ref", NsOp: 400},
		{Case: "b", Variant: "ref", NsOp: 90},
		{Case: "b", Variant: "new", NsOp: 30},
		{Case: "c", Variant: "new", NsOp: 10}, // no reference on this case
	}
	setSpeedups(recs, "ref", "")
	for i, want := range []float64{4, 0, 0, 3, 0} {
		if recs[i].Speedup != want {
			t.Errorf("%s %s: speedup %v, want %v", recs[i].Case, recs[i].Variant, recs[i].Speedup, want)
		}
	}

	// Per unit of work: the new variant takes as long per op but does four
	// times the nodes.
	recs = []Record{
		{Case: "a", Variant: "ref", NsOp: 1000, Counters: map[string]float64{"nodes": 10}},
		{Case: "a", Variant: "new", NsOp: 1000, Counters: map[string]float64{"nodes": 40}},
	}
	setSpeedups(recs, "ref", "nodes")
	if recs[1].Speedup != 4 {
		t.Errorf("per-node speedup %v, want 4", recs[1].Speedup)
	}
}

func TestReportFailsOnFalseGate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	doc := Doc{Mode: "m", GoMaxProcs: 2, Records: []Record{
		{Case: "a", Variant: "v", NsOp: 1, Gates: map[string]bool{"held": true}},
	}}
	if err := report(io.Discard, doc, out, ""); err != nil {
		t.Fatalf("all gates hold: %v", err)
	}
	doc.Records = append(doc.Records, Record{Case: "b", Variant: "w", NsOp: 1,
		Gates: map[string]bool{"held": true, "broken": false}})
	err := report(io.Discard, doc, out, "")
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("false gate: err = %v, want one naming the gate", err)
	}
	// The failed run's report is still written.
	got, err := readDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Errorf("written report = %+v, want %+v", got, doc)
	}
}

func TestReportFailsOnWriteError(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "report.json")
	if err := report(io.Discard, Doc{Mode: "m"}, out, ""); err == nil {
		t.Fatal("unwritable report passed")
	}
}

func TestMeasureReturnsOpError(t *testing.T) {
	errOp := errors.New("op failed")
	if _, err := measure("a", "v", func() error { return errOp }); !errors.Is(err, errOp) {
		t.Fatalf("measure err = %v, want %v", err, errOp)
	}
}

func TestCheckBaseline(t *testing.T) {
	gated := func(speedup float64) Record {
		return Record{Case: "48x48", Variant: "template", Speedup: speedup, Gated: true}
	}
	ungated := Record{Case: "8x8", Variant: "template", Speedup: 3}
	base := Doc{Mode: "fpva", Records: []Record{ungated, gated(10)}}
	fresh := func(speedup float64) Doc {
		slow := ungated
		slow.Speedup = 0.1 // not gated, so never compared
		return Doc{Mode: "fpva", Records: []Record{slow, gated(speedup)}}
	}
	for _, tc := range []struct {
		name    string
		doc     Doc
		base    Doc
		wantErr string
	}{
		{"above floor", fresh(12), base, ""},
		{"at floor", fresh(5), base, ""},
		{"just below floor", fresh(4.99), base, "below 50%"},
		{"mode mismatch", fresh(12), Doc{Mode: "cache", Records: base.Records}, `"cache" report`},
		{"gated record missing", fresh(12), Doc{Mode: "fpva", Records: []Record{ungated}}, "no speedup for 48x48"},
		{"gated record without speedup", fresh(12), Doc{Mode: "fpva", Records: []Record{gated(0)}}, "no speedup for 48x48"},
	} {
		err := checkBaseline(io.Discard, tc.doc, tc.base)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}

	// Through report, as -baseline runs it: a committed report of another
	// mode fails the run.
	dir := t.TempDir()
	committed := filepath.Join(dir, "committed.json")
	if err := writeDoc(committed, Doc{Mode: "cache", Records: base.Records}); err != nil {
		t.Fatal(err)
	}
	if err := report(io.Discard, fresh(12), filepath.Join(dir, "fresh.json"), committed); err == nil {
		t.Error("report passed against a baseline of another mode")
	}
}

func TestDocRoundTrip(t *testing.T) {
	doc := Doc{Mode: "cache", GoMaxProcs: 2, Records: []Record{
		{
			Case: "IVD_chip/IVD", Variant: "disk-hit", Iterations: 7, NsOp: 154134,
			BytesOp: 37268, AllocsOp: 476, Speedup: 42.091234567891, Gated: true,
			Counters: map[string]float64{"payload_bytes": 1362, "rate": 0.1 + 0.2},
			Gates:    map[string]bool{"bit_identical": true, "skips_solve": false},
		},
		{Case: "RA30_chip/PID x32", Variant: "uncached", Iterations: 1, NsOp: 420307710},
	}}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := writeDoc(path, doc); err != nil {
		t.Fatal(err)
	}
	got, err := readDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, doc)
	}
}

// TestCommittedReports checks that every BENCH_<mode>.json at the
// repository root is a report of its mode in the one schema, and that
// -baseline has a speedup to hold for each gated record.
func TestCommittedReports(t *testing.T) {
	for _, m := range modes {
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+m.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var doc Doc
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("BENCH_%s.json: %v", m.name, err)
		}
		if doc.Mode != m.name || doc.GoMaxProcs < 1 || len(doc.Records) == 0 {
			t.Errorf("BENCH_%s.json: mode %q, gomaxprocs %d, %d records", m.name, doc.Mode, doc.GoMaxProcs, len(doc.Records))
		}
		for _, r := range doc.Records {
			if r.Gated && r.Speedup <= 0 {
				t.Errorf("BENCH_%s.json: gated record %s %s has no speedup", m.name, r.Case, r.Variant)
			}
		}
	}
}
