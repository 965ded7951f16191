package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sparse-sessions load: an open loop of Poisson acquires over many
// mostly idle keys, from leased sessions on two connections.
const (
	sparseRate     = 1000 // acquires per second
	sparseKeys     = 256
	sparseServers  = 2  // session servers, on nodes 0 and 1
	sparsePerConn  = 32 // sessions per client connection
	sparseReuseGap = 64 // a key is not drawn again within this many acquires
)

// Hot-key load: a closed loop of callers on one key.
const hotCallers = 16

// opTimeout bounds one acquisition; hitting it is a failure.
const opTimeout = 30 * time.Second

// buildLive sets the cluster up as often as moreSetups asks and keeps the
// last one.
func buildLive(o runOpts, keys []string, sessions bool) (*cluster, map[string]*keyChecker, []float64, error) {
	if o.tr != nil {
		o.tr.setKeys(keys)
	}
	var setups []float64
	for i := 0; ; i++ {
		st := time.Now()
		chk := newCheckers(keys)
		c, err := newCluster(splitmix64(o.seed)+uint64(i), o.tr)
		if err != nil {
			return nil, nil, nil, err
		}
		if sessions {
			err = c.startSessions(sparseServers, sparsePerConn)
		}
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err = c.warmKeys(ctx, keys, chk)
			cancel()
		}
		if err == nil {
			err = checkAll(chk)
		}
		if err != nil {
			c.close()
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(st).Seconds())
		if !moreSetups(o.setups, setups) {
			return c, chk, setups, nil
		}
		c.close()
		runtime.GC() // each set-up starts from a collected heap
	}
}

// A live window is cut into slices, and the end-to-end figures are
// medians over the slices, so a burst of noise from outside the
// benchmark moves one slice, not the result. A slice must hold enough
// acquisitions for ten beyond its p90.
const sliceLen = time.Second

// sample is the cumulative process CPU and frame count at one slice
// boundary, and the peak resident set size of the slice it ends.
type sample struct {
	at     time.Duration // since the window opened
	cpu    time.Duration
	frames uint64
	rss    float64
}

// window measures a live workload: totals over the whole window, plus a
// sample at every slice boundary taken by a sampler goroutine.
type window struct {
	c                         *cluster
	start                     time.Time
	cpu                       time.Duration
	frames, flushes, wireSent uint64
	samples                   []sample
	stop, done                chan struct{}
}

// completion is one finished acquisition: when, since the window
// opened, and its latency in µs.
type completion struct {
	at  time.Duration
	lat float64
}

func openWindow(c *cluster, length time.Duration) *window {
	if c.tr != nil {
		c.tr.markWindow()
	}
	// Return set-up garbage to the system, so the slices' peak resident
	// sets measure the cluster under load.
	debug.FreeOSMemory()
	resetPeakRSS()
	f, fl, s := c.coalesce()
	w := &window{c: c, start: time.Now(), cpu: processCPU(), frames: f, flushes: fl, wireSent: s,
		stop: make(chan struct{}), done: make(chan struct{})}
	w.samples = []sample{{cpu: w.cpu, frames: f}}
	slices := int(length / sliceLen)
	go func() {
		defer close(w.done)
		for k := 1; k < slices; k++ {
			select {
			case <-time.After(time.Until(w.start.Add(time.Duration(k) * sliceLen))):
				w.samples = append(w.samples, w.sample())
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

func (w *window) sample() sample {
	f, _, _ := w.c.coalesce()
	s := sample{at: time.Since(w.start), cpu: processCPU(), frames: f, rss: peakRSSMB()}
	resetPeakRSS()
	return s
}

// close ends the window and fills m from the completions: totals for the
// traced analysis, and the per-slice medians for the end-to-end figures.
// The last slice runs to the end of the window, drain included.
func (w *window) close(m *measurement, done []completion) error {
	close(w.stop)
	<-w.done
	w.samples = append(w.samples, w.sample())
	if n := len(w.samples); n >= 3 && w.samples[n-1].at-w.samples[n-2].at < sliceLen/2 {
		// Fold a short last slice into its predecessor.
		last := w.samples[n-1]
		last.rss = math.Max(last.rss, w.samples[n-2].rss)
		w.samples = append(w.samples[:n-2], last)
	}
	m.wall, m.cpu = time.Since(w.start), processCPU()-w.cpu
	f, fl, s := w.c.coalesce()
	m.frames, m.flushes, m.wireBytes = f-w.frames, fl-w.flushes, s-w.wireSent
	if w.c.tr != nil {
		w.c.tr.endWindow()
	}
	m.cs = int64(len(done))
	if m.cs == 0 {
		return checkf("no critical section completed")
	}
	sort.Slice(done, func(i, j int) bool { return done[i].at < done[j].at })
	var thr, cpu, msgs []float64
	lat := make([]float64, 0, len(done))
	next := 0
	for k := 1; k < len(w.samples); k++ {
		a, b := w.samples[k-1], w.samples[k]
		lat = lat[:0]
		for ; next < len(done) && (done[next].at < b.at || k == len(w.samples)-1); next++ {
			lat = append(lat, done[next].lat)
		}
		if len(lat) == 0 {
			return checkf("no critical section completed in %v-%v", a.at, b.at)
		}
		sort.Float64s(lat)
		if w.c.tr == nil && tailBeyond(len(lat), 0.90) < 10 {
			return checkf("only %d latency samples in a %v slice: fewer than 10 beyond p90", len(lat), b.at-a.at)
		}
		n := float64(len(lat))
		thr = append(thr, n/(b.at-a.at).Seconds())
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/n)
		msgs = append(msgs, float64(b.frames-a.frames)/n)
		m.repP50 = append(m.repP50, quantile(lat, 0.50))
		m.repP90 = append(m.repP90, quantile(lat, 0.90))
		m.repP99 = append(m.repP99, quantile(lat, 0.99))
		m.rss = append(m.rss, b.rss)
	}
	m.samples = len(done)
	m.throughput, m.cpuPerCS, m.msgsPerCS = median(thr), median(cpu), median(msgs)
	return nil
}

// sparseOp is one scheduled acquisition.
type sparseOp struct {
	due  time.Duration
	key  int
	sess int
}

// sparseSchedule draws the open-loop schedule from the seed: Poisson
// arrivals at sparseRate, keys uniform over those not used by the
// previous sparseReuseGap acquisitions, sessions uniform.
func sparseSchedule(seed uint64, window time.Duration, sessions int) []sparseOp {
	rng := rand.New(rand.NewPCG(seed, splitmix64(seed)))
	lastUse := make([]int, sparseKeys)
	for i := range lastUse {
		lastUse[i] = -sparseReuseGap
	}
	var ops []sparseOp
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / sparseRate
		if t >= window.Seconds() {
			return ops
		}
		k := rng.IntN(sparseKeys)
		for lastUse[k] > i-sparseReuseGap {
			k = rng.IntN(sparseKeys)
		}
		lastUse[k] = i
		ops = append(ops, sparseOp{due: time.Duration(t * float64(time.Second)), key: k, sess: rng.IntN(sessions)})
	}
}

func runSparseSessions(o runOpts) (*measurement, error) {
	keys := make([]string, sparseKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	c, chk, setups, err := buildLive(o, keys, true)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m := &measurement{setup: setups}
	tr := c.tr
	ops := sparseSchedule(o.seed, o.window, len(c.sessions))
	done := make([]completion, len(ops))
	ok := make([]bool, len(ops))
	var failed atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	var w *window

	do := func(i int, due time.Time) {
		defer wg.Done()
		op := ops[i]
		sess, key := c.sessions[op.sess], keys[op.key]
		server := int8(op.sess / sparsePerConn)
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		var st int64
		if tr != nil {
			st = tr.now()
		}
		fence, err := sess.Acquire(ctx, key)
		if err != nil {
			failed.Add(1)
			firstErr.CompareAndSwap(nil, fmt.Errorf("acquire %q: %w", key, err))
			return
		}
		done[i].lat = float64(time.Since(due)) / 1e3
		if tr != nil {
			k := tr.keyIdx[key]
			tr.record(span{start: st, end: tr.now(), id: acqID(k, fence), name: spSessionAcquire, node: server, key: k})
			st = tr.now()
		}
		chk[key].acquire(fence)
		chk[key].release()
		if err := sess.Release(key); err != nil {
			failed.Add(1)
			firstErr.CompareAndSwap(nil, fmt.Errorf("release %q: %w", key, err))
			return
		}
		if tr != nil {
			tr.record(span{start: st, end: tr.now(), name: spSessionRelease, node: server, key: tr.keyIdx[key]})
		}
		done[i].at = time.Since(w.start)
		ok[i] = true
	}

	w = openWindow(c, o.window)
	start := w.start.Add(time.Millisecond)
	issued := 0
	for i, op := range ops {
		due := start.Add(op.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if tr != nil && closed(tr.nearlyFull) {
			break
		}
		m.lag = append(m.lag, float64(time.Since(due))/1e3)
		issued++
		wg.Add(1)
		go do(i, due)
	}
	if err := waitTimeout(&wg, opTimeout+10*time.Second); err != nil {
		return nil, err
	}
	m.attempted = int64(issued)
	m.failed = failed.Load()
	finished := done[:0]
	for i := 0; i < issued; i++ {
		if ok[i] {
			finished = append(finished, done[i])
		}
	}
	if err := w.close(m, finished); err != nil {
		return nil, err
	}
	if e, _ := firstErr.Load().(error); e != nil {
		fmt.Fprintln(o.out, "first failure:", e)
	}
	if err := checkAll(chk); err != nil {
		return nil, err
	}
	return m, c.checkReleased()
}

func runHotKey(o runOpts) (*measurement, error) {
	const key = "hot"
	c, chk, setups, err := buildLive(o, []string{key}, false)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m := &measurement{setup: setups}
	tr := c.tr
	var stop atomic.Bool
	var attempted, failed atomic.Int64
	var firstErr atomic.Value
	dones := make([][]completion, hotCallers)
	var wg sync.WaitGroup

	w := openWindow(c, o.window)
	timer := time.AfterFunc(o.window, func() { stop.Store(true) })
	defer timer.Stop()
	for g := 0; g < hotCallers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := g % clusterNodes
			mgr := c.mgrs[node]
			// One deadline per caller: a per-call timer would add its own
			// cost to every acquisition.
			ctx, cancel := context.WithTimeout(context.Background(), o.window+opTimeout)
			defer cancel()
			for !stop.Load() {
				if tr != nil && closed(tr.nearlyFull) {
					return
				}
				attempted.Add(1)
				var st int64
				if tr != nil {
					st = tr.now()
				}
				t0 := time.Now()
				fence, err := c.lockFence(ctx, node, key)
				l := time.Since(t0)
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("lock on node %d: %w", node, err))
					return
				}
				if tr != nil {
					k := tr.keyIdx[key]
					tr.record(span{start: st, end: tr.now(), id: acqID(k, fence), name: spLiveLock, node: int8(node), key: k})
					st = tr.now()
				}
				chk[key].acquire(fence)
				chk[key].release()
				mgr.Unlock(key)
				if tr != nil {
					tr.record(span{start: st, end: tr.now(), name: spLiveUnlock, node: int8(node), key: tr.keyIdx[key]})
				}
				dones[g] = append(dones[g], completion{at: time.Since(w.start), lat: float64(l) / 1e3})
			}
		}(g)
	}
	wg.Wait()
	var all []completion
	for _, d := range dones {
		all = append(all, d...)
	}
	m.attempted, m.failed = attempted.Load(), failed.Load()
	if err := w.close(m, all); err != nil {
		return nil, err
	}
	if e, _ := firstErr.Load().(error); e != nil {
		fmt.Fprintln(o.out, "first failure:", e)
	}
	if err := checkAll(chk); err != nil {
		return nil, err
	}
	return m, c.checkReleased()
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// waitTimeout waits for wg, failing the run if it takes longer than d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return checkf("acquisitions still outstanding %v after the window", d)
	}
}
