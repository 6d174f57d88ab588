//go:build !(linux || darwin)

// Portable stand-in for mem_mmap.go: a heap slice, zeroed up front and freed
// by the collector. Only the lazy footprint of a sparse controller is lost.
package memctl

func mapMemory(_ *Controller, size int) []byte { return make([]byte, size) }
