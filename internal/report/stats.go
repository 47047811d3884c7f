package report

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/flowstage"
)

// StatsDocument is the serialized per-stage runtime breakdown of a flow
// (the -stats output of the CLIs).
type StatsDocument struct {
	// TotalMS is the flow's wall-clock runtime in milliseconds.
	TotalMS float64 `json:"total_ms"`
	// StageSumMS is the sum of the stage durations; the gap to TotalMS is
	// inter-stage glue (artifact plumbing, result assembly).
	StageSumMS float64          `json:"stage_sum_ms"`
	Stages     []StageStatsJSON `json:"stages"`
}

// StageStatsJSON is one stage's share of the flow's work.
type StageStatsJSON struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	// PercentOfTotal is DurationMS as a share of TotalMS (0 when the
	// total is zero).
	PercentOfTotal float64 `json:"percent_of_total"`
	// SolverIters counts PSO iterations executed while the stage ran
	// (outer and inner swarms combined).
	SolverIters int64 `json:"solver_iters,omitempty"`
	// CacheHits/CacheMisses aggregate every cache the stage touched
	// (flow-level augmentation/sharing caches plus the fault simulator's
	// memo); CacheHitRate is hits/(hits+misses).
	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// Counters carries the stage's named counters (ban_rounds, ilp_nodes,
	// ilp_workers, ilp_steals, ilp_idle_waits, ilp_requeued,
	// fault_memo_hits, pressure_solves, pressure_warm, pressure_cold,
	// leakage_examined, ...), sorted by name in table output.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Error is set when the stage failed (the pipeline stops there).
	Error string `json:"error,omitempty"`
}

// BuildStats assembles the stats document from a flow's breakdown. A nil
// stats value yields an empty document.
func BuildStats(stats *flowstage.Stats) StatsDocument {
	doc := StatsDocument{}
	if stats == nil {
		return doc
	}
	doc.TotalMS = float64(stats.Total.Microseconds()) / 1e3
	doc.StageSumMS = float64(stats.StageSum().Microseconds()) / 1e3
	for _, st := range stats.Stages {
		s := StageStatsJSON{
			Name:         st.Name,
			DurationMS:   float64(st.Duration.Microseconds()) / 1e3,
			SolverIters:  st.SolverIters,
			CacheHits:    st.CacheHits,
			CacheMisses:  st.CacheMisses,
			CacheHitRate: st.CacheHitRate(),
			Error:        st.Err,
		}
		if doc.TotalMS > 0 {
			s.PercentOfTotal = 100 * s.DurationMS / doc.TotalMS
		}
		if len(st.Counters) > 0 {
			s.Counters = make(map[string]int64, len(st.Counters))
			for k, v := range st.Counters {
				s.Counters[k] = v
			}
		}
		doc.Stages = append(doc.Stages, s)
	}
	return doc
}

// WriteStatsTable writes the per-stage breakdown as an aligned text
// table: one row per stage with duration, share of total, solver
// iterations and cache traffic, a sum row, and the stage counters.
func WriteStatsTable(w io.Writer, stats *flowstage.Stats) {
	doc := BuildStats(stats)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tDURATION\tSHARE\tSOLVER ITERS\tCACHE HIT/MISS\tHIT RATE")
	for _, s := range doc.Stages {
		rate := "-"
		if s.CacheHits+s.CacheMisses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*s.CacheHitRate)
		}
		name := s.Name
		if s.Error != "" {
			name += " (failed)"
		}
		fmt.Fprintf(tw, "%s\t%.1fms\t%.1f%%\t%d\t%d/%d\t%s\n",
			name, s.DurationMS, s.PercentOfTotal, s.SolverIters, s.CacheHits, s.CacheMisses, rate)
	}
	share := 0.0
	if doc.TotalMS > 0 {
		share = 100 * doc.StageSumMS / doc.TotalMS
	}
	fmt.Fprintf(tw, "sum\t%.1fms\t%.1f%%\t\t\t(total %.1fms)\n", doc.StageSumMS, share, doc.TotalMS)
	tw.Flush()
	for _, s := range doc.Stages {
		if len(s.Counters) == 0 {
			continue
		}
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  %s:", s.Name)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, s.Counters[k])
		}
		fmt.Fprintln(w)
	}
}
