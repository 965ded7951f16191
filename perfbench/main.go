// Command perfbench is the repository benchmark. It runs one workload
// against the system through its public packages, checks the outputs,
// and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// instrumentation installed. With -trace 1 the benchmark measures the
// workload untraced once more, then again with its decorators installed,
// and reports the per-layer set derived from the recorded spans. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported by every workload with -trace 0.
var endToEndMetrics = []metricDef{
	{"throughput_cs_per_s", "1/s"},
	{"acquire_p50_us", "us"},
	{"acquire_p90_us", "us"},
	{"cpu_us_per_cs", "us"},
	{"msgs_per_cs", "count"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// overheadMetrics are the end-to-end metrics the traced run also
// produces; each gets a trace.overhead_ratio.<name> entry.
var overheadMetrics = []string{
	"throughput_cs_per_s", "acquire_p50_us", "acquire_p90_us", "cpu_us_per_cs", "msgs_per_cs",
}

// perLayerMetrics are reported by every workload with -trace 1. A layer
// that is not on a workload's path reports 0: it costs that workload
// nothing.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_cs", "count"},
		{"sim.self_ns_per_cs", "ns"},
		{"sim.wait_mean_tu", "tu"},
		{"core.step_ns_mean", "ns"},
		{"core.steps_per_cs", "count"},
		{"core.batch_size_mean", "count"},
		{"core.collect_wait_us_p50", "us"},
		{"core.forwarded_per_cs", "count"},
		{"core.retransmits_per_cs", "count"},
		{"core.recoveries", "count"},
		{"wire.encode_ns_per_msg", "ns"},
		{"wire.decode_ns_per_msg", "ns"},
		{"wire.bytes_per_msg", "B"},
		{"wire.allocs_per_msg", "count"},
		{"transport.send_ns_p50", "ns"},
		{"transport.sends_per_cs", "count"},
		{"transport.frames_per_flush", "count"},
		{"transport.wire_bytes_per_cs", "B"},
		{"live.lock_us_p50", "us"},
		{"live.lock_us_p99", "us"},
		{"live.unlock_ns_p50", "ns"},
		{"live.deliver_self_ns_p50", "ns"},
		{"session.acquire_self_us_p50", "us"},
		{"session.release_us_p50", "us"},
		{"session.client_writes_per_cs", "count"},
		{"session.client_bytes_per_cs", "B"},
		{"loadgen.lag_p99_us", "us"},
		{"loadgen.acquire_samples", "count"},
		{"acquire_p99_us", "us"},
	}
	for _, l := range layerNames {
		defs = append(defs, metricDef{"layer." + l + "_ns_per_cs", "ns"})
	}
	defs = append(defs,
		metricDef{"layer.sum_ns_per_cs", "ns"},
		metricDef{"layer.e2e_ns_per_cs", "ns"},
	)
	for _, m := range overheadMetrics {
		defs = append(defs, metricDef{"trace.overhead_ratio." + m, "ratio"})
	}
	return append(defs,
		metricDef{"trace.unattributed_cpu_share", "ratio"},
		metricDef{"trace.residue_share", "ratio"},
	)
}()

// runOpts parameterizes one measurement phase of a workload.
type runOpts struct {
	seed   uint64
	window time.Duration
	// setups is how many times at least the phase builds its system
	// (see moreSetups); every build but the last is torn down again,
	// and setup_s is their median.
	setups int
	// tr is nil for an untraced phase.
	tr  *tracer
	out io.Writer
}

// measurement is what one phase observed.
type measurement struct {
	cs        int64
	attempted int64
	failed    int64
	wall      time.Duration
	cpu       time.Duration
	// The end-to-end figures are medians over the simulation's
	// repetitions or the live window's slices; repP50, repP90 and repP99
	// hold each one's acquisition-latency quantiles, in µs.
	throughput             float64 // CS per wall second
	cpuPerCS               float64 // µs
	msgsPerCS              float64
	repP50, repP90, repP99 []float64
	samples                int       // latency samples behind the quantiles
	rss                    []float64 // peak resident set size of each slice, MiB
	lag                    []float64 // open-loop generator lateness, µs
	setup                  []float64 // seconds
	simWaitTU              float64
	// live-cluster counters over the measured window
	frames, flushes, wireBytes uint64
}

// workloadFunc runs one measurement phase of a workload.
type workloadFunc func(o runOpts) (*measurement, error)

var workloads = map[string]workloadFunc{
	"sim-heavy":       runSimHeavy,
	"sparse-sessions": runSparseSessions,
	"hot-key":         runHotKey,
}

// checkError is a failed correctness check: the run is reported as
// incorrect, never as a metric.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-heavy, sparse-sessions or hot-key")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window, in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (sim-heavy, sparse-sessions, hot-key), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))

	var res *result
	var err error
	if *traceMode == 0 {
		res, err = runEndToEnd(w, *seed, window, stdout)
	} else {
		res, err = runTraced(w, *name, *seed, window, *spansDir, stdout)
	}
	var ce *checkError
	switch {
	case errors.As(err, &ce):
		fmt.Fprintln(stderr, "perfbench:", err)
		printResult(stdout, &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
		return 1
	case err != nil:
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, r *result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // only numbers and strings: cannot fail
	}
	fmt.Fprintln(w, string(b))
}

// An end-to-end phase times at least setupReps builds for setup_s, and
// goes on building while all its builds so far took under setupBudget,
// up to setupMax: a cheap set-up is timed more often, so that its median
// holds as steady as a costly one's.
const (
	setupReps   = 7
	setupMax    = 41
	setupBudget = time.Second
)

// moreSetups reports whether a phase that asked for at least min builds
// builds again after the ones timed in taken, in seconds.
func moreSetups(min int, taken []float64) bool {
	if len(taken) < min {
		return true
	}
	if min == 1 || len(taken) >= setupMax {
		return false
	}
	var sum float64
	for _, t := range taken {
		sum += t
	}
	return sum < setupBudget.Seconds()
}

func runEndToEnd(w workloadFunc, seed uint64, window time.Duration, out io.Writer) (*result, error) {
	m, err := w(runOpts{seed: seed, window: window, setups: setupReps, out: out})
	if err != nil {
		return nil, err
	}
	e2e, err := endToEnd(m)
	if err != nil {
		return nil, err
	}
	e2e["setup_s"] = median(m.setup)
	e2e["rss_peak_mb"] = median(m.rss)
	metrics := make(map[string]metricValue, len(endToEndMetrics))
	for _, d := range endToEndMetrics {
		metrics[d.name] = metricValue{Value: e2e[d.name], Unit: d.unit}
	}
	printSummary(out, "untraced", m, e2e)
	return &result{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, nil
}

// endToEnd derives the end-to-end figures of a measurement.
func endToEnd(m *measurement) (map[string]float64, error) {
	if m.cs == 0 {
		return nil, checkf("no critical section completed")
	}
	if m.failed != 0 {
		return nil, checkf("%d of %d acquisitions failed", m.failed, m.attempted)
	}
	return map[string]float64{
		"throughput_cs_per_s": m.throughput,
		"acquire_p50_us":      median(m.repP50),
		"acquire_p90_us":      median(m.repP90),
		"cpu_us_per_cs":       m.cpuPerCS,
		"msgs_per_cs":         m.msgsPerCS,
	}, nil
}

func printSummary(out io.Writer, label string, m *measurement, e2e map[string]float64) {
	fmt.Fprintf(out, "%s: %d CS in %.3fs, %d attempted, %d failed (fail_ratio %.4f), %d latency samples\n",
		label, m.cs, m.wall.Seconds(), m.attempted, m.failed,
		float64(m.failed)/math.Max(1, float64(m.attempted)), m.samples)
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-22s %.6g\n", k, e2e[k])
	}
	if len(m.lag) > 0 {
		lag := append([]float64(nil), m.lag...)
		sort.Float64s(lag)
		fmt.Fprintf(out, "  generator lag (us): p50 %.4g, p99 %.4g\n", quantile(lag, 0.5), quantile(lag, 0.99))
	}
	if len(m.repP90) > 1 {
		fmt.Fprintf(out, "  per-slice p90 (us): %.4g\n", m.repP90)
		fmt.Fprintf(out, "  per-slice p99 (us): %.4g\n", m.repP99)
	}
	if m.simWaitTU > 0 {
		fmt.Fprintf(out, "  %-22s %.6g tu\n", "sim_wait_mean_tu", m.simWaitTU)
	}
}

// --- small statistics helpers ----------------------------------------

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailBeyond is how many of n samples lie beyond the nearest-rank
// q-quantile.
func tailBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// processCPU is the process's user+system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB since
// the last resetPeakRSS, from /proc/self/status. Without procfs it falls
// back to the lifetime peak getrusage reports (ru_maxrss, in KiB).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the peak resident set size from the current one
// (Linux clear_refs 5). Where that is not allowed the peak stays the
// lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// splitmix64 derives independent seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
