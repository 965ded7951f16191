package main

import (
	"fmt"
	"sort"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/sim"
	"tokenarbiter/internal/workload"
)

// The sim-heavy workload is the paper's simulation: N=10, message delay
// and CS time 0.1, Poisson arrivals at λ=0.3 per node, core defaults.
// Each repetition is a fixed request count with the first 5% excluded
// as warm-up; repetitions with fresh seeds run until the window ends.
const (
	simNodes          = 10
	simLambda         = 0.3
	simRequests       = 100_000
	simSetupRequests  = 20_000
	simTracedRequests = 5_000
)

func simConfig(seed, requests uint64) dme.Config {
	return dme.Config{
		N:              simNodes,
		Seed:           seed,
		Delay:          sim.ConstantDelay{D: 0.1},
		Texec:          0.1,
		TotalRequests:  requests,
		WarmupRequests: requests / 20,
		// A liveness backstop: the run needs about requests/(N·λ) time
		// units.
		MaxVirtualTime: 100 * float64(requests) / (simNodes * simLambda),
		Gen: func(node int) dme.GeneratorFunc {
			return workload.Stream(workload.Poisson{Lambda: simLambda}, seed, node)
		},
	}
}

// tracedAlgo wraps every node the algorithm builds in the step
// decorator.
type tracedAlgo struct {
	inner dme.Algorithm
	t     *tracer
}

func (a tracedAlgo) Name() string { return a.inner.Name() }

func (a tracedAlgo) Build(cfg dme.Config) ([]dme.Node, error) {
	nodes, err := a.inner.Build(cfg)
	if err != nil {
		return nil, err
	}
	for i, n := range nodes {
		nodes[i] = a.t.newStepNode(n, i, 0)
	}
	return nodes, nil
}

// simLatency is a dme trace hook that times each simulated acquisition
// in wall-clock time, from the simulator processing its arrival to the
// simulator processing its CS entry, and counts requests, entries and
// exits for the completion check.
type simLatency struct {
	base                    time.Time
	pending                 [simNodes][]int64
	heads                   [simNodes]int
	skip                    uint64
	lat                     []float64
	requests, enters, exits uint64
	enterWithoutRequest     bool
}

// newSimLatency reuses buf for the samples.
func newSimLatency(warmup uint64, buf []float64) *simLatency {
	return &simLatency{base: time.Now(), skip: warmup, lat: buf[:0]}
}

func (h *simLatency) trace(ev dme.TraceEvent) {
	switch ev.Kind {
	case dme.TraceRequest:
		h.requests++
		h.pending[ev.From] = append(h.pending[ev.From], int64(time.Since(h.base)))
	case dme.TraceEnterCS:
		h.enters++
		q, i := h.pending[ev.From], h.heads[ev.From]
		if i >= len(q) {
			h.enterWithoutRequest = true
			return
		}
		at := q[i]
		if i+1 == len(q) {
			h.pending[ev.From], h.heads[ev.From] = q[:0], 0
		} else {
			h.heads[ev.From] = i + 1
		}
		if h.enters > h.skip {
			h.lat = append(h.lat, float64(int64(time.Since(h.base))-at)/1e3)
		}
	case dme.TraceExitCS:
		h.exits++
	}
}

func (h *simLatency) check(requests uint64) error {
	if h.enterWithoutRequest || h.requests != requests || h.enters != requests || h.exits != requests {
		return checkf("simulation issued %d of %d requests, entered %d and exited %d critical sections",
			h.requests, requests, h.enters, h.exits)
	}
	return nil
}

func runSimHeavy(o runOpts) (*measurement, error) {
	m := &measurement{}
	plain := core.New(simOptions())
	for i := 0; moreSetups(o.setups, m.setup); i++ {
		st := time.Now()
		if _, err := dme.Run(plain, simConfig(splitmix64(^o.seed+uint64(i)), simSetupRequests)); err != nil {
			return nil, checkf("warm-up simulation: %v", err)
		}
		m.setup = append(m.setup, time.Since(st).Seconds())
	}

	algo := dme.Algorithm(plain)
	requests := uint64(simRequests)
	if o.tr != nil {
		opts := simOptions()
		opts.Observer = o.tr.observer(false)
		algo = tracedAlgo{inner: core.New(opts), t: o.tr}
		requests = simTracedRequests
		o.tr.markWindow()
	}
	var thr, cpu, speed []float64
	var msgs, measured uint64
	var waitSum, waitN float64
	var maxSpans int64
	latBuf := make([]float64, 0, requests)
	reps := 0
	start, cpu0 := time.Now(), processCPU()
	for rep := 0; ; rep++ {
		if rep >= 2 && time.Since(start) >= o.window {
			break
		}
		if o.tr != nil && rep >= 1 && int64(len(o.tr.spans))-o.tr.n.Load() < 2*maxSpans {
			break // the next repetition might not fit the arena
		}
		cfg := simConfig(splitmix64(o.seed+uint64(rep)<<20), requests)
		// Untraced, every other repetition carries the latency hook,
		// and only the bare ones are timed for throughput and CPU.
		var h *simLatency
		if o.tr != nil || rep%2 == 1 {
			h = newSimLatency(cfg.WarmupRequests, latBuf)
			cfg.Trace = h.trace
		}
		var slot int32
		var spanStart, spans0 int64
		if o.tr != nil {
			spans0 = o.tr.n.Load()
			slot, spanStart = o.tr.reserve(), o.tr.now()
		}
		resetPeakRSS()
		c0, t0 := processCPU(), time.Now()
		met, err := dme.Run(algo, cfg)
		el, c1 := time.Since(t0), processCPU()
		m.rss = append(m.rss, peakRSSMB())
		if o.tr != nil {
			o.tr.fill(slot, span{start: spanStart, end: o.tr.now(), name: spSimRun, node: -1})
			if used := o.tr.n.Load() - spans0; used > maxSpans {
				maxSpans = used
			}
		}
		m.attempted += int64(requests)
		if err != nil {
			return nil, checkf("simulation: %v", err)
		}
		if want := requests - cfg.WarmupRequests; met.CSCompleted != want {
			return nil, checkf("simulation completed %d measured critical sections, want %d", met.CSCompleted, want)
		}
		if h != nil {
			if err := h.check(requests); err != nil {
				return nil, err
			}
			sort.Float64s(h.lat)
			if tailBeyond(len(h.lat), 0.90) < 10 {
				return nil, checkf("only %d latency samples: fewer than 10 beyond p90", len(h.lat))
			}
			m.repP50 = append(m.repP50, quantile(h.lat, 0.50))
			m.repP90 = append(m.repP90, quantile(h.lat, 0.90))
			m.repP99 = append(m.repP99, quantile(h.lat, 0.99))
			m.samples += len(h.lat)
			latBuf = h.lat
		}
		if h == nil || o.tr != nil {
			thr = append(thr, float64(requests)/el.Seconds())
			cpu = append(cpu, float64(c1-c0)/1e3/float64(requests))
			speed = append(speed, hostSpeed())
		}
		reps++
		m.cs += int64(requests)
		msgs += met.TotalMessages
		measured += met.CSCompleted
		waitSum += met.Waiting.Mean() * float64(met.Waiting.Count())
		waitN += float64(met.Waiting.Count())
	}
	m.wall, m.cpu = time.Since(start), processCPU()-cpu0
	if o.tr != nil {
		o.tr.endWindow()
	}
	// Report the timing figures at the reference host speed (hostspeed.go).
	s := median(speed)
	m.throughput = median(thr) / s
	m.cpuPerCS = median(cpu) * s
	for _, xs := range [][]float64{m.repP50, m.repP90, m.repP99, m.setup} {
		for i := range xs {
			xs[i] *= s
		}
	}
	m.msgsPerCS = float64(msgs) / float64(measured)
	m.simWaitTU = waitSum / waitN
	fmt.Fprintf(o.out, "sim-heavy: %d repetitions of %d requests, %d timed for throughput, host at %.3f of the reference speed\n",
		reps, requests, len(thr), s)
	return m, nil
}

// simOptions are the paper's defaults with the timeout retransmission
// the repository's figure experiments enable: without it a request the
// protocol drops near the end of a finite run is never resubmitted and
// the run cannot drain (DESIGN.md, substitutions).
func simOptions() core.Options {
	return core.Options{RetransmitTimeout: 25}
}
