package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// withinBound reports whether metric d moved from a to b by no more than
// its bound. Every end-to-end metric is lower-is-better; setup_s may also
// move by setupFloorS, and fail_rate may not rise at all.
func withinBound(d metricDef, a, b float64) bool {
	allowed := a * (1 + d.bound)
	if d.name == "setup_s" {
		allowed = math.Max(allowed, a+setupFloorS)
	}
	return b <= allowed
}

// compareReports prints, per workload and metric, both medians with their
// quartiles, the ratio and a verdict, and returns 1 when any end-to-end
// metric is outside its bound. Per-layer metrics have no bound.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "A: %s (commit %s, %s, nproc %d, gomaxprocs %d, seed %d)\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NProc, a.Env.GOMAXPROCS, a.Env.Seed)
	fmt.Fprintf(w, "B: %s (commit %s, %s, nproc %d, gomaxprocs %d, seed %d)\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NProc, b.Env.GOMAXPROCS, b.Env.Seed)
	byName := map[string]*workloadReport{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	worse := 0
	cell := func(s stat) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3) }
	row := func(name string, sa, sb stat, verdict string) {
		ratio := math.NaN()
		if sa.Median != 0 {
			ratio = sb.Median / sa.Median
		}
		fmt.Fprintf(w, "  %-28s %-34s %-34s %7.3f  %s\n", name, cell(sa), cell(sb), ratio, verdict)
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: missing from B\n", wa.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s  (A: %d/%d ops failed, B: %d/%d)\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		fmt.Fprintf(w, "  %-28s %-34s %-34s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "verdict")
		for _, d := range allEndToEnd() {
			sa, okA := wa.EndToEnd[d.name]
			sb, okB := wb.EndToEnd[d.name]
			if !okA || !okB {
				continue
			}
			limit := fmt.Sprintf("bound +%.0f%%", 100*d.bound)
			if d.bound == 0 {
				limit = "no increase"
			}
			verdict := "ok (" + limit + ")"
			if d.bound < 0 {
				verdict = "-"
			} else if !withinBound(d, sa.Median, sb.Median) {
				verdict = "WORSE (" + limit + ")"
				worse++
			}
			row(d.name, sa, sb, verdict)
		}
		for _, d := range perLayer() {
			sa, okA := wa.Layers[d.name]
			sb, okB := wb.Layers[d.name]
			if okA && okB {
				row(d.name, sa, sb, "-")
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "\n%d end-to-end metric(s) outside their bound\n", worse)
		return 1
	}
	fmt.Fprintln(w, "\nevery end-to-end metric within its bound")
	return 0
}
