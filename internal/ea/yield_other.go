//go:build !linux

package ea

import "runtime"

// yield gives up the CPU to other goroutines while a worker waits. Only
// Linux also yields the thread to the OS (yield_linux.go).
//
//schedlint:hotpath
func yield() {
	runtime.Gosched()
}
