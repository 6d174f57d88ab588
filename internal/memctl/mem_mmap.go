//go:build linux || darwin

package memctl

import (
	"fmt"
	"runtime"
	"syscall"
)

// mapMemory returns size bytes of private anonymous memory, zero-filled on
// first touch with no swap reserved, unmapped once owner is unreachable.
func mapMemory(owner *Controller, size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("memctl: mapping %d bytes: %v", size, err))
	}
	runtime.AddCleanup(owner, unmap, mem)
	return mem
}

func unmap(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("memctl: unmapping %d bytes: %v", len(mem), err))
	}
}
