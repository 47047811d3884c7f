package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// setupProbes is how many set-up-only children a run starts before its
// passes, so setup_s has a median over enough samples even when a run
// fits only a few passes.
const setupProbes = 7

// minSamples is the fewest untraced passes a time-bounded run measures:
// it starts that many even if the last of them ends a little past the
// budget, so no end-to-end median stands on fewer samples.
const minSamples = 7

// runner starts pass children, one at a time: each is a fresh process
// running this binary again, so every op is cold like a CLI invocation
// and no process-wide state crosses passes.
type runner struct {
	exe      string
	work     string // per-pass cache directories
	traceDir string // traced passes' spans and CPU profiles
	golden   *goldenFile
	log      io.Writer
	probe    *memProbe
	// childProcs is the GOMAXPROCS the last pass child ran with.
	childProcs int
}

// runConfig selects what a run measures.
type runConfig struct {
	seed int64
	// seconds > 0 bounds the run's time; passes then run while the next
	// one is expected to fit. 0 runs the workload's fixed pass count.
	seconds int
	trace   bool
	quick   bool
}

// spawn runs one pass child and returns its result. A child still alive
// killFactor times the workload's expected pass time after it started is
// killed; its pass then fails.
func (r *runner) spawn(w *workload, spec passSpec, pass int) (*passResult, error) {
	spec.Pass = pass
	ops := make([]opSpec, len(spec.Ops))
	cached := false
	for i, op := range spec.Ops {
		op.Timeout = opTimeoutFactor * w.expectPass
		ops[i] = op
		cached = cached || op.Cached
	}
	spec.Ops = ops
	if cached {
		spec.CacheDir = filepath.Join(r.work, "cache", fmt.Sprintf("%s-%d", w.name, pass))
		if err := os.RemoveAll(spec.CacheDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spec.CacheDir)
	}
	spec.SpawnNs = time.Now().UnixNano()
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pass child: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	limit := killFactor*w.expectPass + killSlack
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case err := <-done:
		if err != nil {
			return nil, fmt.Errorf("pass child: %w", err)
		}
	case <-timer.C:
		_ = cmd.Process.Kill() // the child may exit on its own meanwhile; Wait reports either way
		<-done
		return nil, fmt.Errorf("pass child killed after %v", limit)
	}
	var res passResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("pass child result: %w", err)
	}
	return &res, nil
}

// runWorkload runs set-up probes and then the passes of one workload, and
// aggregates them into a report.
func (r *runner) runWorkload(w *workload, cfg runConfig) (*workloadReport, error) {
	start := time.Now()
	ops := w.ops(cfg.seed, cfg.quick)
	golden := r.golden.hashes(w.name, ops)
	rep := &workloadReport{Name: w.name}
	for _, op := range ops {
		if _, ok := golden[op.Key]; !ok {
			rep.NoGolden = append(rep.NoGolden, op.Key)
		}
	}
	if len(rep.NoGolden) > 0 {
		fmt.Fprintf(r.log, "%s: no golden entry for %v; running the independent checks only\n", w.name, rep.NoGolden)
	}
	opsPerPass := len(ops)
	for _, op := range ops {
		if op.Cached {
			opsPerPass++ // its disk hit
		}
	}

	var s passSamples
	sampleLatency := func() float64 {
		lat := r.probe.sample()
		s.latency = append(s.latency, lat)
		return lat
	}
	lat := sampleLatency()
	for i := 0; i < setupProbes; i++ {
		res, err := r.spawn(w, passSpec{Workload: w.name, Ops: ops, SetupOnly: true}, -1-i)
		if err != nil {
			return nil, fmt.Errorf("%s set-up probe: %w", w.name, err)
		}
		s.addSetup(res, lat)
	}

	passes := w.passes
	if cfg.quick {
		passes = 2
	}
	minPasses := minSamples
	if cfg.trace {
		minPasses = 2 // one untraced, one traced
	}
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var verified []string
	var took []float64
	for pass := 0; ; pass++ {
		if cfg.seconds > 0 {
			next := w.expectPass
			if len(took) > 0 {
				next = time.Duration(median(took) * float64(time.Second))
			}
			// Past the floor, or once a pass has failed (so a stall cannot
			// hold the run for minPasses kill limits), the budget decides.
			if (pass >= minPasses || rep.Failed > 0) && time.Now().Add(next).After(deadline) {
				break
			}
		} else if pass >= passes {
			break
		}
		lat = sampleLatency()
		traced := cfg.trace && pass%2 == 1
		spec := passSpec{Workload: w.name, Ops: ops, Trace: traced, Golden: golden, Verified: verified}
		if traced {
			spec.TraceBase = filepath.Join(r.traceDir, fmt.Sprintf("%s-s%d-p%d", w.name, cfg.seed, pass))
		}
		t0 := time.Now()
		res, err := r.spawn(w, spec, pass)
		took = append(took, time.Since(t0).Seconds())
		rep.Passes++
		rep.Attempted += opsPerPass
		if err != nil {
			rep.Failed += opsPerPass
			rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d: %v", pass, err))
			fmt.Fprintf(r.log, "%s pass %d: %v\n", w.name, pass, err)
			continue
		}
		for _, op := range res.Ops {
			if len(op.Failures) > 0 {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d %s: %v", pass, op.Key, op.Failures))
			} else if op.Checked {
				verified = append(verified, op.Hash)
			}
		}
		r.childProcs = res.GOMAXPROCS
		s.add(res, spec.TraceBase, lat)
		rep.PassLog = append(rep.PassLog, passRecord{Traced: traced, SetupS: float64(res.SetupNs) / 1e9,
			WallS: float64(res.WallNs) / 1e9, CPUS: float64(res.CPUNs) / 1e9, StealS: float64(res.StealNs) / 1e9, LatencyNs: lat})
		tag := ""
		if traced {
			tag = " traced"
		}
		fmt.Fprintf(r.log, "%s pass %d%s: wall %.3fs cpu %.3fs rss %.0fMB\n", w.name, pass, tag,
			float64(res.WallNs)/1e9, float64(res.CPUNs)/1e9, float64(res.PeakRSSKB)/1024)
	}
	sampleLatency()
	if err := s.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}
