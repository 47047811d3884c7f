//go:build !linux

package main

import "time"

// threadCPU falls back to the wall clock where the thread CPU clock is
// not read.
func threadCPU() time.Duration { return time.Since(wallStart) }
