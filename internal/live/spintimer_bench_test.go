//go:build unix

package live

import (
	"slices"
	"syscall"
	"testing"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkShortTimer is the timer rung of the layer ladder: one idle
// 200 µs timer (a Treq window with nothing else running) on the
// process-wide short-timer service. ns/op is the window plus its
// lateness; late-p50-ns and late-p90-ns are how long after its deadline
// the timer fired, and cpu-ns/op is the process CPU (getrusage) each
// window cost — the price of the precision.
func BenchmarkShortTimer(b *testing.B) {
	const d = 200 * time.Microsecond
	late := make([]time.Duration, b.N)
	fired := make(chan time.Time, 1)
	cpu0 := processCPU(b)
	b.ResetTimer()
	for i := range late {
		due := time.Now().Add(d)
		shortTimers.after(d, nil, func() { fired <- time.Now() })
		late[i] = (<-fired).Sub(due)
	}
	b.StopTimer()
	cpu := processCPU(b) - cpu0
	slices.Sort(late)
	b.ReportMetric(float64(late[len(late)/2]), "late-p50-ns")
	b.ReportMetric(float64(late[len(late)*9/10]), "late-p90-ns")
	b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/op")
}
