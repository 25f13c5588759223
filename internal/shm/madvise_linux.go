//go:build linux && (amd64 || arm64)

package shm

import "syscall"

// madvMergeable et al. are irrelevant here; the only advice the arena
// issues is MADV_HUGEPAGE, asking the kernel to back the range with
// transparent huge pages so a multi-megabyte span region costs a
// handful of TLB entries instead of hundreds.
const madvHugepage = 14

// madviseSupported gates AdviseHugeBytes' byte accounting: only report
// bytes as advised where the syscall actually exists.
const madviseSupported = true

// madviseHuge issues madvise(addr, length, MADV_HUGEPAGE) via the raw
// syscall, in the style of the memfd_create call in segment_linux.go.
// addr must be page-aligned (callers align to huge-page boundaries).
func madviseHuge(addr, length uintptr) error {
	_, _, errno := syscall.Syscall(sysMadvise, addr, length, madvHugepage)
	if errno != 0 {
		return errno
	}
	return nil
}
