package live

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// kernelTimer is a CLOCK_MONOTONIC timerfd. The fd is non-blocking and
// wrapped in an os.File, so wait parks the calling goroutine in the
// netpoller until the timer expires instead of blocking a thread.
type kernelTimer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte // expiration count; only its arrival matters
}

// newKernelTimer returns nil when the kernel refuses a timerfd (seccomp
// filters, ancient kernels); the caller then yields through each delay.
func newKernelTimer() *kernelTimer {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC
	if errno != 0 {
		return nil
	}
	return &kernelTimer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

// arm sets the timer to expire once, d from now (d > 0), replacing any
// earlier setting and discarding an expiration not yet read.
func (k *kernelTimer) arm(d time.Duration) {
	// struct itimerspec{it_interval, it_value}: a zero interval is one-shot.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	// Settime on a timerfd this process created can fail only on an
	// invalid value, which d > 0 rules out.
	_, _, _ = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait blocks until the armed timer expires.
func (k *kernelTimer) wait() error {
	_, err := k.f.Read(k.buf[:])
	return err
}
