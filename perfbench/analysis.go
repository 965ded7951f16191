package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/wire"
)

// spanCapacity is the traced run's arena size (32 bytes a span).
const spanCapacity = 600_000

// layerNames are the rows of the layer-sum table, in path order.
var layerNames = []string{"sim", "core", "wire", "transport", "live", "session"}

// counters is a snapshot of the tracer's boundary counters.
type counters struct {
	at                                                      int64
	dispatches, batched, forwarded, retransmits, recoveries int64
	collectWaits                                            int
	sessWrites, sessBytes                                   int64
}

func (t *tracer) snapshot() counters {
	t.mu.Lock()
	waits := len(t.collectWaits)
	t.mu.Unlock()
	return counters{
		at:         t.now(),
		dispatches: t.dispatches.Load(), batched: t.batched.Load(),
		forwarded: t.forwarded.Load(), retransmits: t.retransmits.Load(),
		recoveries:   t.recoveries.Load(),
		collectWaits: waits,
		sessWrites:   t.sessWrites.Load(), sessBytes: t.sessBytes.Load(),
	}
}

// markWindow and endWindow bracket the measured window: spans and
// counters from set-up and warm-up fall outside it.
func (t *tracer) markWindow() { t.from = t.snapshot() }
func (t *tracer) endWindow()  { t.to = t.snapshot() }

func runTraced(w workloadFunc, name string, seed uint64, window time.Duration, spansDir string, out io.Writer) (*result, error) {
	base, err := w(runOpts{seed: seed, window: window, setups: 1, out: out})
	if err != nil {
		return nil, err
	}
	baseE2E, err := endToEnd(base)
	if err != nil {
		return nil, err
	}
	printSummary(out, "untraced", base, baseE2E)

	// The traced phase runs a quarter as long: the per-layer figures
	// need fewer samples, and the arena bounds it anyway.
	tr := newTracer(spanCapacity)
	tm, err := w(runOpts{seed: seed, window: window / 4, setups: 1, tr: tr, out: out})
	if err != nil {
		return nil, err
	}
	tracedE2E, err := endToEnd(tm)
	if err != nil {
		return nil, err
	}
	printSummary(out, "traced", tm, tracedE2E)

	vals, err := analyze(tr, tm, out)
	if err != nil {
		return nil, err
	}
	vals["sim.wait_mean_tu"] = base.simWaitTU
	sort.Float64s(base.lag)
	vals["loadgen.lag_p99_us"] = quantile(base.lag, 0.99)
	vals["loadgen.acquire_samples"] = float64(base.samples)
	vals["acquire_p99_us"] = median(base.repP99)
	for _, m := range overheadMetrics {
		vals["trace.overhead_ratio."+m] = tracedE2E[m] / baseE2E[m]
	}
	if err := tr.writeSpans(filepath.Join(spansDir, name+".spans")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	metrics := make(map[string]metricValue, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return &result{
		Correct:   true,
		Attempted: base.attempted + tm.attempted,
		Failed:    base.failed + tm.failed,
		Metrics:   metrics,
	}, nil
}

// analyze derives the per-layer metrics from the traced window and
// prints the layer-sum table.
func analyze(t *tracer, m *measurement, out io.Writer) (map[string]float64, error) {
	cs := float64(m.cs)
	all := t.recorded()
	in := func(s span) bool { return s.name != 0 && s.start >= t.from.at && s.end <= t.to.at }
	vals := map[string]float64{}

	// Core steps and their calls back into the runtime.
	var childSend, childOther = make(map[int32]int64), make(map[int32]int64)
	var ctxSend, ctxOther int64
	for _, s := range all {
		if !in(s) || s.parent == 0 {
			continue
		}
		switch s.name {
		case spCtxSend:
			childSend[s.parent-1] += s.end - s.start
			ctxSend += s.end - s.start
		case spCtxOther:
			childOther[s.parent-1] += s.end - s.start
			ctxOther += s.end - s.start
		}
	}
	type stepRef struct{ start, end int64 }
	steps := map[nodeKey][]stepRef{}
	var nSteps, nEvents int
	var stepFull, coreSelf, simRun, transportSend, sessionWrite int64
	var sends, locks, unlocks, releases []float64
	lockByID := map[uint64]float64{}
	var acquires []span
	var delivers []span
	for i, s := range all {
		if !in(s) {
			continue
		}
		d := s.end - s.start
		switch {
		case isStep(s.name):
			nSteps++
			if s.name != spCoreInit {
				nEvents++
			}
			stepFull += d
			coreSelf += d - childSend[int32(i)] - childOther[int32(i)]
			k := nodeKey{int(s.node), s.key}
			steps[k] = append(steps[k], stepRef{s.start, s.end})
		case s.name == spSimRun:
			simRun += d
		case s.name == spTransportSend:
			transportSend += d
			sends = append(sends, float64(d))
		case s.name == spLiveDeliver:
			delivers = append(delivers, s)
		case s.name == spLiveLock:
			locks = append(locks, float64(d)/1e3)
			lockByID[s.id] = float64(d) / 1e3
		case s.name == spLiveUnlock:
			unlocks = append(unlocks, float64(d))
		case s.name == spSessionAcquire:
			acquires = append(acquires, s)
		case s.name == spSessionRelease:
			releases = append(releases, float64(d)/1e3)
		case s.name == spSessionWrite:
			sessionWrite += d
		}
	}
	if nSteps == 0 {
		return nil, checkf("traced run recorded no core steps")
	}

	// A delivery's self time is its span minus the steps of the same
	// node and key that ran inside it: the inline executor runs them on
	// the delivering goroutine.
	for _, ss := range steps {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	}
	var deliverSelf []float64
	var deliverFull, containedSteps int64
	for _, dv := range delivers {
		ss := steps[nodeKey{int(dv.node), dv.key}]
		i := sort.Search(len(ss), func(i int) bool { return ss[i].start >= dv.start })
		self := dv.end - dv.start
		for ; i < len(ss) && ss[i].start < dv.end; i++ {
			if ss[i].end <= dv.end {
				self -= ss[i].end - ss[i].start
				containedSteps += ss[i].end - ss[i].start
			}
		}
		deliverSelf = append(deliverSelf, float64(self))
		deliverFull += dv.end - dv.start
	}

	// A session acquisition's self time is the client call minus the
	// backend lock call that granted it, matched by key and fence.
	var acquireSelf []float64
	unmatched := 0
	for _, a := range acquires {
		l, ok := lockByID[a.id]
		if !ok {
			unmatched++
			continue
		}
		acquireSelf = append(acquireSelf, float64(a.end-a.start)/1e3-l)
	}
	if len(acquires) > 0 && unmatched*10 > len(acquires) {
		return nil, checkf("%d of %d session acquisitions matched no backend lock by key and fence", unmatched, len(acquires))
	}

	for _, xs := range [][]float64{sends, locks, unlocks, releases, deliverSelf, acquireSelf} {
		sort.Float64s(xs)
	}
	t.mu.Lock()
	waits := append([]float64(nil), t.collectWaits[t.from.collectWaits:t.to.collectWaits]...)
	t.mu.Unlock()
	sort.Float64s(waits)

	d := func(get func(c counters) int64) float64 { return float64(get(t.to) - get(t.from)) }
	dispatches := d(func(c counters) int64 { return c.dispatches })
	if dispatches > 0 {
		vals["core.batch_size_mean"] = d(func(c counters) int64 { return c.batched }) / dispatches
	}
	vals["core.step_ns_mean"] = float64(coreSelf) / float64(nSteps)
	vals["core.steps_per_cs"] = float64(nSteps) / cs
	vals["core.collect_wait_us_p50"] = quantile(waits, 0.5)
	vals["core.forwarded_per_cs"] = d(func(c counters) int64 { return c.forwarded }) / cs
	vals["core.retransmits_per_cs"] = d(func(c counters) int64 { return c.retransmits }) / cs
	vals["core.recoveries"] = d(func(c counters) int64 { return c.recoveries })

	layer := map[string]float64{"core": float64(coreSelf) / cs}
	covered := float64(simRun)
	if simRun > 0 {
		vals["sim.events_per_cs"] = float64(nEvents) / cs
		vals["sim.self_ns_per_cs"] = float64(simRun-stepFull) / cs
		layer["sim"] = float64(simRun-stepFull+ctxSend+ctxOther) / cs
	} else {
		wv, err := replayWire(t, out)
		if err != nil {
			return nil, err
		}
		for k, v := range wv {
			vals[k] = v
		}
		frames := float64(m.frames)
		vals["transport.send_ns_p50"] = quantile(sends, 0.5)
		vals["transport.sends_per_cs"] = float64(len(sends)) / cs
		if m.flushes > 0 {
			vals["transport.frames_per_flush"] = frames / float64(m.flushes)
		}
		vals["transport.wire_bytes_per_cs"] = float64(m.wireBytes) / cs
		vals["live.lock_us_p50"] = quantile(locks, 0.5)
		vals["live.lock_us_p99"] = quantile(locks, 0.99)
		vals["live.unlock_ns_p50"] = quantile(unlocks, 0.5)
		vals["live.deliver_self_ns_p50"] = quantile(deliverSelf, 0.5)
		if len(acquires) > 0 {
			vals["session.acquire_self_us_p50"] = quantile(acquireSelf, 0.5)
			vals["session.release_us_p50"] = quantile(releases, 0.5)
			vals["session.client_writes_per_cs"] = d(func(c counters) int64 { return c.sessWrites }) / cs
			vals["session.client_bytes_per_cs"] = d(func(c counters) int64 { return c.sessBytes }) / cs
		}
		// Encoding runs inside the transport's Send span; decoding runs
		// on the receive goroutine before any span opens.
		enc, dec := vals["wire.encode_ns_per_msg"], vals["wire.decode_ns_per_msg"]
		layer["wire"] = frames * (enc + dec) / cs
		layer["transport"] = math.Max(0, float64(transportSend)-frames*enc) / cs
		layer["live"] = float64(deliverFull-containedSteps+ctxOther+ctxSend-transportSend) / cs
		layer["session"] = float64(sessionWrite) / cs
		covered = float64(deliverFull + stepFull - containedSteps + sessionWrite)
	}
	var sum float64
	for _, l := range layerNames {
		vals["layer."+l+"_ns_per_cs"] = layer[l]
		sum += layer[l]
	}
	e2e := float64(m.cpu) / cs
	vals["layer.sum_ns_per_cs"] = sum
	vals["layer.e2e_ns_per_cs"] = e2e
	vals["trace.residue_share"] = (e2e - sum) / e2e
	vals["trace.unattributed_cpu_share"] = 1 - covered/float64(m.cpu)

	fmt.Fprintf(out, "layer sum: busy ns per CS over %d traced CS (%d spans, %d dropped)\n", m.cs, len(all), t.dropped())
	for _, l := range layerNames {
		fmt.Fprintf(out, "  %-10s %12.1f\n", l, layer[l])
	}
	fmt.Fprintf(out, "  %-10s %12.1f\n", "sum", sum)
	fmt.Fprintf(out, "  %-10s %12.1f  (process CPU per CS)\n", "end-to-end", e2e)
	fmt.Fprintf(out, "  %-10s %12.1f  (%.1f%% of end-to-end)\n", "residue", e2e-sum, 100*(e2e-sum)/e2e)
	if unmatched > 0 {
		fmt.Fprintf(out, "  %d session acquisitions matched no backend lock\n", unmatched)
	}
	return vals, nil
}

// replayWire re-encodes and re-decodes the traced run's captured
// outbound messages through the binary codec. The captured frames are
// decoded first, so each replayed message is owned by the replay; every
// re-encoding must reproduce the captured bytes, and every decoded
// message must equal the one encoded.
func replayWire(t *tracer, out io.Writer) (map[string]float64, error) {
	if _, err := registry.RegisterWire(registry.Core); err != nil {
		return nil, err
	}
	t.mu.Lock()
	frames := append([]byte(nil), t.capture.Bytes()...)
	n := t.captured
	t.mu.Unlock()
	if n == 0 {
		return nil, checkf("traced run captured no outbound messages")
	}
	type msgFrom struct {
		from int
		msg  dme.Message
	}
	msgs := make([]msgFrom, 0, n)
	dec := wire.BinaryCodec().NewDecoder(bytes.NewReader(frames), registry.Core)
	for i := 0; i < n; i++ {
		from, msg, err := dec.Decode()
		if err != nil {
			return nil, checkf("decode captured message %d: %v", i, err)
		}
		msgs = append(msgs, msgFrom{from, msg})
	}

	const passes = 5
	var encNS, decNS, allocs []float64
	var buf bytes.Buffer
	decoded := make([]msgFrom, n)
	var ms0, ms1 runtime.MemStats
	for p := 0; p < passes; p++ {
		buf.Reset()
		enc := wire.BinaryCodec().NewEncoder(&buf, registry.Core)
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, m := range msgs {
			if err := enc.Encode(m.from, m.msg); err != nil {
				return nil, checkf("re-encode: %v", err)
			}
		}
		t1 := time.Now()
		dec := wire.BinaryCodec().NewDecoder(bytes.NewReader(buf.Bytes()), registry.Core)
		for i := range decoded {
			from, msg, err := dec.Decode()
			if err != nil {
				return nil, checkf("decode re-encoded message %d: %v", i, err)
			}
			decoded[i] = msgFrom{from, msg}
		}
		t2 := time.Now()
		runtime.ReadMemStats(&ms1)
		encNS = append(encNS, float64(t1.Sub(t0))/float64(n))
		decNS = append(decNS, float64(t2.Sub(t1))/float64(n))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
		if !bytes.Equal(buf.Bytes(), frames) {
			return nil, checkf("re-encoding %d messages did not reproduce the captured bytes", n)
		}
		for i := range decoded {
			if decoded[i].from != msgs[i].from || !reflect.DeepEqual(decoded[i].msg, msgs[i].msg) {
				return nil, checkf("message %d decoded as %#v, want %#v", i, decoded[i].msg, msgs[i].msg)
			}
		}
	}
	fmt.Fprintf(out, "wire replay: %d messages, %d bytes, %d passes\n", n, len(frames), passes)
	return map[string]float64{
		"wire.encode_ns_per_msg": median(encNS),
		"wire.decode_ns_per_msg": median(decNS),
		"wire.bytes_per_msg":     float64(len(frames)) / float64(n),
		"wire.allocs_per_msg":    median(allocs),
	}, nil
}
