package main

import (
	"math/rand"
	"runtime"
	"time"
)

// memProbe measures the machine's memory latency: a chain of dependent
// loads around one random cycle through 32 MiB, timed by the thread's CPU
// clock so that time the hypervisor takes from the CPU does not count.
//
// On a shared host the latency drifts by tens of percent over minutes as
// neighbours load the memory system, and the flow's CPU time follows it.
// Every time the benchmark reports is therefore scaled by refLatencyNs
// over the latency sampled just before its pass (and wall times are also
// cleared of stolen time, see passSamples.add). On ten 30-s runs per
// workload on a 2-core VM, scaling cut the spread of the run medians of
// wall time from 0.13-0.20 to 0.05-0.16. The probe is the benchmark's own
// code, so no change to the program can move it; it runs in the parent
// between passes, never beside a child.
type memProbe struct {
	next []uint32
	pos  uint32
}

const (
	probeEntries = 1 << 23 // 32 MiB of uint32
	probeLoads   = 1 << 19 // about 60 ms per sample
	// refLatencyNs is the probe's latency on a quiet 2-core Xeon box; an
	// adjusted time reads as if every run had that latency.
	refLatencyNs = 100.0
)

func newMemProbe() *memProbe {
	next := make([]uint32, probeEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every entry.
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &memProbe{next: next}
}

// sample returns the mean latency of one dependent load, in nanoseconds
// of the thread's CPU time.
func (p *memProbe) sample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	i := p.pos
	for k := 0; k < probeLoads; k++ {
		i = p.next[i]
	}
	p.pos = i
	return float64((threadCPU() - t0).Nanoseconds()) / probeLoads
}

// wallStart anchors the fallback clock of threadCPU.
var wallStart = time.Now()
