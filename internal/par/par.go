// Package par runs index-parallel loops: fn(i) for every i in [0, n),
// either serially on the caller or over a bounded set of goroutines that
// claim indices in increasing order. Every parallel campaign in the
// repository (fault simulation, detection matrices, diagnosis and
// reconfiguration, suite generation, PSO generations, batch flows) goes
// through it. Each of those writes its results by index, so its output
// is the same for every worker count; the claim order and cancellation
// rule below are the part of that guarantee this package owns.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n when positive, otherwise one
// worker per CPU (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For calls fn(i) once for every i in [0, n). With workers <= 1 the loop
// runs on the calling goroutine in index order; otherwise min(workers, n)
// goroutines claim indices in increasing order, and For returns once all
// of them have exited. Once ctx is done no further index runs, and For
// returns ctx.Err() when it left any index unrun (a context already done
// on entry runs none); otherwise it returns nil.
func For(ctx context.Context, workers, n int, fn func(i int)) error {
	return ForScratch(ctx, workers, n, noScratch, dropScratch, func(_ struct{}, i int) { fn(i) })
}

func noScratch() struct{} { return struct{}{} }

func dropScratch(struct{}) {}

// ForScratch is For with per-goroutine scratch: each goroutine of the loop
// (the caller, when serial) takes one value from get before its first
// index, passes it to every fn call it makes, and hands it back to put
// when it finishes. A scratch value is therefore never used by two
// goroutines at once, and every get is matched by exactly one put.
func ForScratch[S any](ctx context.Context, workers, n int, get func() S, put func(S), fn func(s S, i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if workers <= 1 {
		s := get()
		defer put(s)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(s, i)
		}
		return nil
	}
	workers = min(workers, n)
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := get()
			defer put(s)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case <-done:
					stopped.Store(true)
					return
				default:
				}
				fn(s, i)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}
