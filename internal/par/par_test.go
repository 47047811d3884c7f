package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got, want := Workers(n), runtime.GOMAXPROCS(0); got != want {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

// TestForEachIndexOnce: every index in [0, n) runs exactly once, for
// serial and parallel worker counts, including more workers than indices.
func TestForEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			counts := make([]atomic.Int32, n)
			if err := For(context.Background(), workers, n, func(i int) { counts[i].Add(1) }); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// scratch records its own use: busy catches two goroutines inside fn with
// the same value, and the plain uses counter gives the race detector a
// shared write to flag if that ever happens.
type scratch struct {
	busy atomic.Bool
	uses int
}

// TestForScratchPairsAndExclusive: every get is matched by one put, and
// no scratch value is in use by two goroutines at once. Run under -race.
func TestForScratchPairsAndExclusive(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			var (
				mu       sync.Mutex
				got, put int
				uses     int
			)
			get := func() *scratch {
				mu.Lock()
				got++
				mu.Unlock()
				return &scratch{}
			}
			release := func(s *scratch) {
				if s.busy.Load() {
					t.Error("scratch returned while in use")
				}
				mu.Lock()
				put++
				uses += s.uses
				mu.Unlock()
			}
			err := ForScratch(context.Background(), workers, n, get, release, func(s *scratch, i int) {
				if !s.busy.CompareAndSwap(false, true) {
					t.Error("scratch shared by two goroutines")
				}
				s.uses++
				s.busy.Store(false)
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			if got != put {
				t.Fatalf("workers=%d n=%d: %d gets, %d puts", workers, n, got, put)
			}
			if uses != n {
				t.Fatalf("workers=%d n=%d: scratch saw %d uses, want %d", workers, n, uses, n)
			}
			if limit := min(max(workers, 1), n); got > limit {
				t.Fatalf("workers=%d n=%d: %d gets, want at most %d", workers, n, got, limit)
			}
		}
	}
}

// TestForCancelledClaimsNothing: a context done on entry runs no index,
// calls no get, and returns its error.
func TestForCancelledClaimsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			var ran, gets atomic.Int32
			err := ForScratch(ctx, workers, n,
				func() int { gets.Add(1); return 0 }, func(int) {},
				func(_ int, _ int) { ran.Add(1) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d n=%d: err = %v, want context.Canceled", workers, n, err)
			}
			if ran.Load() != 0 || gets.Load() != 0 {
				t.Fatalf("workers=%d n=%d: %d indices ran, %d gets under a cancelled context",
					workers, n, ran.Load(), gets.Load())
			}
		}
	}
}

// TestForCancelMidLoop: cancelling from inside the loop stops further
// claims, and For reports the cancellation because indices were left.
func TestForCancelMidLoop(t *testing.T) {
	const n, at = 1000, 10
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran, ranAtCancel atomic.Int32
		err := For(ctx, workers, n, func(int) {
			if ran.Add(1) == at {
				cancel()
				ranAtCancel.Store(ran.Load())
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Once the cancellation lands, each other goroutine finishes at
		// most the one index it had already claimed.
		if r, c := ran.Load(), ranAtCancel.Load(); r > c+int32(workers-1) || r >= n {
			t.Fatalf("workers=%d: %d indices ran, %d when the context was cancelled", workers, r, c)
		}
	}
}

// TestForSerialInOrderOnCaller: at one worker or fewer, indices run in
// increasing order on the calling goroutine.
func TestForSerialInOrderOnCaller(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		err := For(context.Background(), workers, 50, func(i int) {
			order = append(order, i)
			pc := make([]uintptr, 16)
			frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
			onCaller := false
			for {
				f, more := frames.Next()
				if strings.HasSuffix(f.Function, ".TestForSerialInOrderOnCaller") {
					onCaller = true
				}
				if !more {
					break
				}
			}
			if !onCaller {
				t.Errorf("workers=%d: index %d ran off the caller's goroutine", workers, i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: order %v", workers, order)
			}
		}
		if len(order) != 50 {
			t.Fatalf("workers=%d: ran %d of 50", workers, len(order))
		}
	}
}
