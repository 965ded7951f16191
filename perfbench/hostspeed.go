package main

import (
	"math/rand/v2"
	"time"
)

// The shared VM this benchmark was written on changes speed from minute
// to minute as its neighbours come and go: with no change to the
// program, sim-heavy's throughput moved between 270k and 410k CS/s from
// one run to the next, and its CPU time per CS moved with it. sim-heavy
// is single-threaded CPU work, so it reports its timing figures at a
// reference host speed instead. Between its timed repetitions it times
// hostKernel, a fixed event-queue loop that shares no code with the
// program, and scales its figures by the kernel's median rate over
// refKernelRate. The host's drift cancels; a change to the program
// still moves the figures as much as it would on a steady host.
const (
	kernelSteps   = 100_000
	refKernelRate = 7e6 // hostKernel steps per second on the reference host
)

var kernelSink float64

// hostSpeed times hostKernel once and returns its rate as a share of
// refKernelRate.
func hostSpeed() float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	h := make([]float64, 0, 1024)
	for range cap(h) {
		h = pushHeap(h, rng.ExpFloat64())
	}
	st := time.Now()
	t := hostKernel(rng, h)
	rate := kernelSteps / time.Since(st).Seconds()
	kernelSink += t // keep the loop from being optimised away
	return rate / refKernelRate
}

// hostKernel pops the earliest time off the heap and pushes a later one,
// kernelSteps times, the core loop of a discrete-event simulation.
func hostKernel(rng *rand.Rand, h []float64) float64 {
	var t float64
	for range kernelSteps {
		t, h = popHeap(h)
		h = pushHeap(h, t+rng.ExpFloat64())
	}
	return t
}

func pushHeap(h []float64, x float64) []float64 {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popHeap(h []float64) (float64, []float64) {
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r := l + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return top, h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
