//go:build linux

package ea

import (
	"runtime"
	"syscall"
)

// yield gives up the CPU while a worker waits: to other goroutines, and by
// sched_yield to other threads. Without the OS yield, on a host with as
// many vCPUs as busy threads, any other thread (another process, the
// runtime's own) preempts the producer or a helper holding a claimed
// individual for a whole scheduler slice, milliseconds, while its peer
// spins on an idle P.
//
//schedlint:hotpath
func yield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
