// Package cliutil holds the shared command-line plumbing of the repo's
// CLIs (dftgen, chipinfo, faultsim, experiments): the common exit-code
// contract, signal-aware context setup, error classification, and
// benchmark/file loading for chips and assays.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/loader"
	"repro/internal/solve"
)

// The exit-code contract shared by every CLI in this repo.
const (
	// ExitOK: full success.
	ExitOK = 0
	// ExitError: the run failed.
	ExitError = 1
	// ExitUsage: bad flags or unknown benchmark names.
	ExitUsage = 2
	// ExitDegraded: a result was produced, but by a fallback tier, after
	// an interrupted search, or with partial coverage.
	ExitDegraded = 3
	// ExitCancelled: Ctrl-C, SIGTERM or a -timeout expiry stopped the run
	// before any result existed.
	ExitCancelled = 4
)

// SignalContext returns a context cancelled by SIGINT/SIGTERM and, when
// timeout > 0, bounded by that wall-clock budget. The returned stop
// function releases both; defer it in main.
func SignalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() {
		cancel()
		stop()
	}
}

// ExitCode classifies an error per the shared contract: context
// cancellation/expiry maps to ExitCancelled, a fault injection naming an
// unknown tier to ExitUsage, anything else to ExitError.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ExitCancelled
	case errors.Is(err, solve.ErrUnknownInjectionTier):
		return ExitUsage
	default:
		return ExitError
	}
}

// Fail prints "tool: err" to stderr and returns the error's exit code.
func Fail(tool string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	return ExitCode(err)
}

// Usagef prints "tool: message" to stderr and returns ExitUsage.
func Usagef(tool, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	return ExitUsage
}

// LoadChip resolves a chip from a JSON spec file (when file is non-empty)
// or from the benchmark set by name. Errors are usage errors.
func LoadChip(name, file string) (*chip.Chip, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return loader.ReadChip(f)
	}
	c, ok := chip.BenchmarkByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown chip %q", name)
	}
	return c, nil
}

// LoadAssay resolves an assay from a JSON spec file (when file is
// non-empty) or from the benchmark set by name. Errors are usage errors.
func LoadAssay(name, file string) (*assay.Graph, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return loader.ReadAssay(f)
	}
	a, ok := assay.BenchmarkByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown assay %q", name)
	}
	return a, nil
}

// RunFlags is the execution-knob flag set shared by every CLI: the
// wall-clock budget, the worker-pool size, and the artifact-cache directory.
// One definition keeps flag names, help text and default semantics
// identical across dftgen, faultsim, experiments and chipinfo.
type RunFlags struct {
	// Timeout bounds the run's wall clock (0 = none).
	Timeout time.Duration
	// Workers sizes the fault-simulation, diagnosis and PSO worker pools
	// (0 = all CPU cores). Results are bit-identical for any value.
	Workers int
	// CacheDir roots the persistent artifact store ("" = no cache).
	CacheDir string
}

// AddRunFlags registers the shared execution flags on the default flag
// set; call before flag.Parse.
func AddRunFlags() *RunFlags {
	rf := &RunFlags{}
	flag.DurationVar(&rf.Timeout, "timeout", 0,
		"overall wall-clock budget (0 = none)")
	flag.IntVar(&rf.Workers, "workers", 0,
		"fault-simulation, diagnosis and PSO worker-pool size (0 = all CPU cores; results are identical for any value)")
	flag.StringVar(&rf.CacheDir, "cache-dir", "",
		"persistent artifact-cache directory; warm reruns skip solved stages (empty = no cache)")
	return rf
}

// Context returns the signal-aware, timeout-bounded run context.
func (rf *RunFlags) Context() (context.Context, context.CancelFunc) {
	return SignalContext(rf.Timeout)
}

// OpenCache builds the artifact cache over -cache-dir, or nil when no
// directory was given.
func (rf *RunFlags) OpenCache() (*core.Cache, error) {
	if rf.CacheDir == "" {
		return nil, nil
	}
	return core.NewCache(core.CacheConfig{Dir: rf.CacheDir})
}
