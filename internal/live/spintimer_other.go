//go:build !linux

package live

import "time"

// kernelTimer has no implementation off Linux: newKernelTimer reports
// none, and the short-timer runner yields through every delay.
type kernelTimer struct{}

func newKernelTimer() *kernelTimer { return nil }

func (*kernelTimer) arm(time.Duration) {}

func (*kernelTimer) wait() error { return nil }
