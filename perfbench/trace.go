package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/wire"
)

// spanName is a span's layer boundary.
type spanName uint8

const (
	spSimRun spanName = iota + 1
	spCoreInit
	spCoreRequest
	spCoreMessage
	spCoreCSDone
	spCoreTimer
	// spCtxSend and spCtxOther are a core step's calls back into its
	// runtime: Send/Broadcast, and EnterCS/After/Cancel.
	spCtxSend
	spCtxOther
	spTransportSend
	spLiveDeliver
	spLiveLock
	spLiveUnlock
	spSessionAcquire
	spSessionRelease
	spSessionWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSimRun:         "sim.run",
	spCoreInit:       "core.init",
	spCoreRequest:    "core.request",
	spCoreMessage:    "core.message",
	spCoreCSDone:     "core.csdone",
	spCoreTimer:      "core.timer",
	spCtxSend:        "core.ctx.send",
	spCtxOther:       "core.ctx.other",
	spTransportSend:  "transport.send",
	spLiveDeliver:    "live.deliver",
	spLiveLock:       "live.lock",
	spLiveUnlock:     "live.unlock",
	spSessionAcquire: "session.acquire",
	spSessionRelease: "session.release",
	spSessionWrite:   "session.write",
}

func isStep(n spanName) bool { return n >= spCoreInit && n <= spCoreTimer }

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's base. parent is the 1-based arena index of the
// enclosing span where the benchmark sees it directly (a core step's
// runtime calls); id ties the spans of one acquisition together (key
// and fence); key indexes the tracer's key table (0: no key).
type span struct {
	start, end int64
	id         uint64
	parent     int32
	name       spanName
	node       int8
	key        uint16
}

// tracer holds the spans of one traced phase in a fixed arena, plus the
// counters recorded at the same boundaries. Spans are written to
// distinct arena slots by any goroutine and read only after the phase
// has stopped all of them.
type tracer struct {
	base  time.Time
	spans []span
	n     atomic.Int64
	// nearlyFull is closed when the arena passes 90%: load generators
	// stop issuing so in-flight work still fits.
	nearlyFull chan struct{}
	fullAt     int64

	keyIdx  map[string]uint16 // filled before the phase, read-only during it
	keyName []string

	// Core observer counters.
	dispatches, batched, forwarded, retransmits, recoveries atomic.Int64

	mu           sync.Mutex
	collectWaits []float64 // µs, live workloads only
	steppers     map[nodeKey]*stepNode
	capture      bytes.Buffer // outbound messages, binary-encoded, for the wire replay
	captureEnc   wire.Encoder
	captured     int
	sessWrites   atomic.Int64
	sessBytes    atomic.Int64

	from, to counters // the measured window
}

type nodeKey struct {
	node int
	key  uint16
}

// maxCaptured bounds the outbound messages kept for the wire replay.
const maxCaptured = 20000

func newTracer(capacity int) *tracer {
	t := &tracer{
		base:       time.Now(),
		spans:      make([]span, capacity),
		nearlyFull: make(chan struct{}),
		fullAt:     int64(capacity) * 9 / 10,
		keyIdx:     map[string]uint16{"": 0},
		keyName:    []string{""},
		steppers:   map[nodeKey]*stepNode{},
	}
	t.captureEnc = wire.BinaryCodec().NewEncoder(&t.capture, "core")
	return t
}

// setKeys fills the key table; call it before any traffic.
func (t *tracer) setKeys(keys []string) {
	for _, k := range keys {
		t.keyIdx[k] = uint16(len(t.keyName))
		t.keyName = append(t.keyName, k)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reserve claims an arena slot, or returns -1 when the arena is full.
func (t *tracer) reserve() int32 {
	i := t.n.Add(1) - 1
	if i == t.fullAt {
		close(t.nearlyFull)
	}
	if i >= int64(len(t.spans)) {
		return -1
	}
	return int32(i)
}

func (t *tracer) fill(slot int32, s span) {
	if slot >= 0 {
		t.spans[slot] = s
	}
}

func (t *tracer) record(s span) { t.fill(t.reserve(), s) }

// recorded returns the filled spans.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

func (t *tracer) dropped() int64 {
	if d := t.n.Load() - int64(len(t.spans)); d > 0 {
		return d
	}
	return 0
}

// keyOf returns the key-table index of a wire message's lock key.
func (t *tracer) keyOf(msg dme.Message) uint16 {
	_, key, _ := wire.Unwrap(msg)
	return t.keyIdx[key]
}

// acqID identifies one acquisition by key and fence, the pair a session
// client and the backend both see.
func acqID(key uint16, fence uint64) uint64 { return uint64(key)<<48 | fence&(1<<48-1) }

// captureMsg keeps an outbound message for the wire replay. Encoding at
// capture time snapshots its contents, so later reuse of the message's
// buffers by the protocol cannot change what is replayed.
func (t *tracer) captureMsg(from int, msg dme.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.captured >= maxCaptured {
		return
	}
	if err := t.captureEnc.Encode(from, msg); err == nil {
		t.captured++
	}
}

// observer is the core.Options.Observer for one protocol instance. live
// selects wall-clock collection-wait timing; simulated instances share
// one observer and report virtual time, which the benchmark skips.
func (t *tracer) observer(live bool) func(core.Event) {
	var firstAccepted time.Time // executor-confined per instance
	return func(ev core.Event) {
		switch ev.Kind {
		case core.EventRequestAccepted:
			if live && firstAccepted.IsZero() {
				firstAccepted = time.Now()
			}
		case core.EventDispatched:
			t.dispatches.Add(1)
			t.batched.Add(int64(ev.Batch))
			if live && !firstAccepted.IsZero() {
				w := float64(time.Since(firstAccepted)) / 1e3
				firstAccepted = time.Time{}
				t.mu.Lock()
				t.collectWaits = append(t.collectWaits, w)
				t.mu.Unlock()
			}
		case core.EventRequestForwarded:
			t.forwarded.Add(1)
		case core.EventRequestRetransmitted:
			t.retransmits.Add(1)
		case core.EventInvalidationStarted, core.EventTakeover:
			t.recoveries.Add(1)
		}
	}
}

// --- dme.Node decorator -----------------------------------------------

// stepNode decorates a protocol node: every callback the runtime makes
// (Init, OnRequest, OnMessage, OnCSDone, and the timer callbacks the
// node arms) is a timed step, and the node's calls back into the
// runtime through the Context are timed as its children. The runtime
// serializes a node's callbacks, so the fields below need no lock.
type stepNode struct {
	inner dme.Node
	t     *tracer
	node  int8
	key   uint16
	outer dme.Context
	ctx   stepCtx
	cur   int32 // arena slot of the running step, -1 between steps
	// fence is the core's fence at the most recent EnterCS; see
	// restoreFence.
	fence atomic.Uint64
}

func (t *tracer) newStepNode(inner dme.Node, node int, key uint16) *stepNode {
	s := &stepNode{inner: inner, t: t, node: int8(node), key: key, cur: -1}
	s.ctx.s = s
	return s
}

var _ dme.Node = (*stepNode)(nil)

func (s *stepNode) begin(ctx dme.Context) (slot, prev int32, start int64) {
	s.outer = ctx
	prev = s.cur
	slot = s.t.reserve()
	s.cur = slot
	return slot, prev, s.t.now()
}

func (s *stepNode) end(slot, prev int32, start int64, name spanName) {
	s.cur = prev
	s.t.fill(slot, span{start: start, end: s.t.now(), parent: prev + 1, name: name, node: s.node, key: s.key})
}

// ID implements dme.Node.
func (s *stepNode) ID() dme.NodeID { return s.inner.ID() }

// Init implements dme.Node.
func (s *stepNode) Init(ctx dme.Context) {
	slot, prev, st := s.begin(ctx)
	s.inner.Init(&s.ctx)
	s.end(slot, prev, st, spCoreInit)
}

// OnRequest implements dme.Node.
func (s *stepNode) OnRequest(ctx dme.Context) {
	slot, prev, st := s.begin(ctx)
	s.inner.OnRequest(&s.ctx)
	s.end(slot, prev, st, spCoreRequest)
}

// OnMessage implements dme.Node.
func (s *stepNode) OnMessage(ctx dme.Context, from dme.NodeID, msg dme.Message) {
	slot, prev, st := s.begin(ctx)
	s.inner.OnMessage(&s.ctx, from, msg)
	s.end(slot, prev, st, spCoreMessage)
}

// OnCSDone implements dme.Node.
func (s *stepNode) OnCSDone(ctx dme.Context) {
	slot, prev, st := s.begin(ctx)
	s.inner.OnCSDone(&s.ctx)
	s.end(slot, prev, st, spCoreCSDone)
}

// MarkRejoin forwards the live runtime's rejoin hook, which it finds by
// type assertion.
func (s *stepNode) MarkRejoin() {
	if r, ok := s.inner.(interface{ MarkRejoin() }); ok {
		r.MarkRejoin()
	}
}

// Inspect forwards core introspection to the decorated node. The live
// runtime calls core.Inspect on its node directly, which asserts the
// concrete core type and so cannot see through any decorator: a
// decorated live node reports fence 0 from LockFence, and the traced
// run restores each grant's fence from here (see restoreFence).
func (s *stepNode) Inspect() (core.Introspection, bool) { return core.Inspect(s.inner) }

// stepCtx is the Context a decorated node sees: it times each call into
// the runtime as a child of the running step.
type stepCtx struct{ s *stepNode }

var _ dme.Context = (*stepCtx)(nil)

func (c *stepCtx) child(name spanName, start int64) {
	s := c.s
	s.t.record(span{start: start, end: s.t.now(), parent: s.cur + 1, name: name, node: s.node, key: s.key})
}

func (c *stepCtx) Now() float64  { return c.s.outer.Now() }
func (c *stepCtx) N() int        { return c.s.outer.N() }
func (c *stepCtx) Rand() float64 { return c.s.outer.Rand() }

func (c *stepCtx) Send(from, to dme.NodeID, msg dme.Message) {
	st := c.s.t.now()
	c.s.outer.Send(from, to, msg)
	c.child(spCtxSend, st)
}

func (c *stepCtx) Broadcast(from dme.NodeID, msg dme.Message) {
	st := c.s.t.now()
	c.s.outer.Broadcast(from, msg)
	c.child(spCtxSend, st)
}

func (c *stepCtx) After(node dme.NodeID, delay float64, fn func()) dme.Timer {
	s := c.s
	st := s.t.now()
	tm := s.outer.After(node, delay, func() {
		slot, prev, start := s.begin(s.outer)
		fn()
		s.end(slot, prev, start, spCoreTimer)
	})
	c.child(spCtxOther, st)
	return tm
}

func (c *stepCtx) Cancel(t dme.Timer) {
	st := c.s.t.now()
	c.s.outer.Cancel(t)
	c.child(spCtxOther, st)
}

func (c *stepCtx) EnterCS(node dme.NodeID) {
	s := c.s
	if ins, ok := s.Inspect(); ok {
		s.fence.Store(ins.LastFence)
	}
	st := s.t.now()
	s.outer.EnterCS(node)
	c.child(spCtxOther, st)
}

// registerStepper makes a live instance's decorator findable by node
// and key.
func (t *tracer) registerStepper(s *stepNode) {
	t.mu.Lock()
	t.steppers[nodeKey{int(s.node), s.key}] = s
	t.mu.Unlock()
}

// restoreFence returns the fence of the grant node holds on key. The
// runtime cannot read it through the decorator and returns 0; the
// decorator recorded it at EnterCS, before the runtime published the
// grant to the waiter, and no later EnterCS can happen on that node and
// key until the grant is released.
func (t *tracer) restoreFence(node int, key string, got uint64) (uint64, error) {
	if got != 0 {
		return got, nil // the runtime saw through the decorator after all
	}
	t.mu.Lock()
	s := t.steppers[nodeKey{node, t.keyIdx[key]}]
	t.mu.Unlock()
	if s == nil {
		return 0, fmt.Errorf("no decorated instance for node %d key %q", node, key)
	}
	return s.fence.Load(), nil
}

// writeSpans writes the arena to path: a JSON header line (span names,
// key table, count, record layout) followed by fixed 32-byte
// little-endian records.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := t.recorded()
	w := bufio.NewWriterSize(f, 1<<20)
	hdr, err := json.Marshal(map[string]any{
		"names":  spanNames[:],
		"keys":   t.keyName,
		"count":  len(spans),
		"record": "start_ns i64, end_ns i64, id u64, parent u32 (1-based, 0 none), name u8, node i8, key u16",
	})
	if err != nil {
		_ = f.Close()
		return err
	}
	_, _ = w.Write(append(hdr, '\n'))
	var rec [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint64(rec[16:], s.id)
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.parent))
		rec[28] = byte(s.name)
		rec[29] = byte(s.node)
		binary.LittleEndian.PutUint16(rec[30:], s.key)
		_, _ = w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
