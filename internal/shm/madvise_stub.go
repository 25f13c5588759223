//go:build !linux || (!amd64 && !arm64)

package shm

// madviseHuge is a no-op where madvise (or this port's raw-syscall
// plumbing) is unavailable: the huge-page hint is advisory, so the
// portable behaviour is simply not to hint.
func madviseHuge(addr, length uintptr) error { return nil }

// madviseSupported gates AdviseHugeBytes' byte accounting: only report
// bytes as advised where the syscall actually exists.
const madviseSupported = false
