package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/flowstage"
)

// span is one recorded interval: an op, a pipeline stage inside it, or a
// degradation-chain tier attempt inside a stage. Parent and Op index the
// recorder's span list (-1 for none).
type span struct {
	name       string
	cat        string
	start, end time.Duration // since the recorder's epoch
	parent, op int
	reason     string
}

// spanRecorder is the flowstage.Observer of traced passes. It keeps
// spans in memory and sums the StageStats counters every stage reports;
// the spans are written out as Chrome trace events after the pass.
type spanRecorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	op       int
	stage    int
	counters map[string]int64
	ticks    int64
}

var _ flowstage.Observer = (*spanRecorder)(nil)

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), op: -1, stage: -1, counters: map[string]int64{}}
}

func (r *spanRecorder) open(s span) int {
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *spanRecorder) beginOp(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op = r.open(span{name: key, cat: "op", start: time.Since(r.epoch), parent: -1, op: len(r.spans)})
}

func (r *spanRecorder) endOp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[r.op].end = time.Since(r.epoch)
	r.op = -1
}

func (r *spanRecorder) StageStart(stage string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stage = r.open(span{name: stage, cat: "stage", start: time.Since(r.epoch), parent: r.op, op: r.op})
}

// StageEnd closes the stage span. A stage whose reported duration is
// longer than its bracket (the artifact stage of a cache hit is announced
// after the lookup it times) is widened to start that much earlier.
func (r *spanRecorder) StageEnd(stage string, st flowstage.StageStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[r.stage]
	s.end = time.Since(r.epoch)
	if s.end-st.Duration < s.start {
		s.start = s.end - st.Duration
	}
	for k, v := range st.Counters {
		r.counters[k] += v
	}
	r.stage = -1
}

func (r *spanRecorder) SolverTick(string, int, float64) {
	r.mu.Lock()
	r.ticks++
	r.mu.Unlock()
}

// ChainAttempt records a tier attempt; the event arrives when the attempt
// ends, so the span starts its elapsed time earlier.
func (r *spanRecorder) ChainAttempt(stage string, tier int, tierName string, reason string, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	end := time.Since(r.epoch)
	r.open(span{name: tierName, cat: "chain", start: end - elapsed, end: end, parent: r.stage, op: r.op, reason: reason})
}

func (r *spanRecorder) ILPAttempt(string, int, int, int)        {}
func (r *spanRecorder) CacheDelta(string, string, int64, int64) {}

// summary folds the spans into per-stage and per-tier time and returns
// them with the summed counters.
func (r *spanRecorder) summary() *passTraced {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &passTraced{StageNs: map[string]int64{}, ChainNs: map[string]int64{}, Counters: map[string]int64{}}
	for _, s := range r.spans {
		d := (s.end - s.start).Nanoseconds()
		switch s.cat {
		case "op":
			t.OpNs += d
		case "stage":
			t.StageNs[s.name] += d
		case "chain":
			t.ChainNs[s.name] += d
		}
	}
	for k, v := range r.counters {
		t.Counters[k] = v
	}
	t.Counters["solver_ticks"] = r.ticks
	return t
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds), loadable in chrome://tracing or Perfetto.
func (r *spanRecorder) writeChrome(path string, pid int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"id": i, "parent": s.parent, "op": s.op}
		if s.reason != "" {
			args["reason"] = s.reason
		}
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: pid, Tid: 1, Args: args,
		})
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
