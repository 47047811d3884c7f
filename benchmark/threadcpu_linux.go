package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU reads the calling thread's CPU clock, which stands still
// while the hypervisor runs another guest on the CPU. Should the clock be
// unreadable, it falls back to the wall clock.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return time.Since(wallStart)
	}
	return time.Duration(ts.Nano())
}
