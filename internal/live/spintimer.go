package live

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The short-timer service: precise wall-clock firing for sub-millisecond
// protocol phases.
//
// time.AfterFunc is the right tool for recovery timeouts (tens of
// milliseconds and up), but on an otherwise-parked scheduler a runtime
// timer fires through netpoll, whose wakeup granularity is on the order
// of a millisecond. The arbiter's request-collection window (Treq) and
// forwarding phase (Tfwd) are a few hundred microseconds in
// low-hold-time deployments, and that window sits once in every dispatch
// cycle — an ~0.9 ms overshoot per 200 µs timer was the single largest
// term in the live keys=1 handoff chain after the inline executor
// removed the queue parks.
//
// Delays below shortTimerCutoff therefore go onto a shared min-heap
// drained by one runner goroutine, which waits out each deadline in two
// stages. Until spinTail before the deadline it blocks on a kernel timer
// (a timerfd on Linux, read through the netpoller, so the sleeping runner
// holds neither a thread nor a P); for the final spinTail it yields
// (Gosched) in a loop, so firing error is scheduler-pass sized rather
// than kernel-wakeup sized. Where no kernel timer is available the
// runner yields through the whole delay.
//
// The runner exists only while short timers are pending (it exits when
// the heap drains), every entry is < shortTimerCutoff away, and the fn
// it calls is Node.post — which inline-executes the protocol step, so a
// dispatch window expiring flows straight into stamping and sending the
// token with no further handoff.

// shortTimerCutoff splits timer delays between the short-timer service
// (below) and time.AfterFunc (at or above). Two milliseconds covers the
// sub-millisecond protocol phases the overshoot ruins while keeping
// every spin bounded and leaving retransmit/recovery timers — where a
// millisecond of slack is harmless — on the runtime's timers.
const shortTimerCutoff = 2 * time.Millisecond

// spinTail is how long before a deadline the runner stops sleeping on
// the kernel timer and starts yielding. It must cover the kernel timer's
// wakeup overshoot as seen by the runner: the timerfd expiry, the
// netpoller noticing it, and the runner being scheduled — tens of
// microseconds when idle, more under load, when the netpoller is polled
// late. Overshoot beyond the tail lands on the protocol phase.
const spinTail = 30 * time.Microsecond

// spinEntry is one pending short timer.
type spinEntry struct {
	due      time.Time
	seq      uint64 // tie-break so equal deadlines fire in arm order
	fn       func()
	canceled *atomic.Bool
}

// spinHeap is a deadline-ordered min-heap of pending entries.
type spinHeap []spinEntry

func (h spinHeap) Len() int { return len(h) }
func (h spinHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h spinHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spinHeap) Push(x any)   { *h = append(*h, x.(spinEntry)) }
func (h *spinHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = spinEntry{}
	*h = old[:n-1]
	return e
}

// spinTimerService is the process-wide short-timer arbiter. One runner
// goroutine serves every Node in the process (a multi-key Manager's
// instances all share it), so the timer cost does not scale with key
// count.
//
// The re-arm invariant: while sleeping is set, the kernel timer is armed
// for no later than spinTail before the heap top's deadline. The runner
// establishes it when it goes to sleep, and after() restores it, under
// mu, whenever a newly armed entry becomes the heap top. Without the
// re-arm an earlier deadline armed mid-sleep would fire when the later
// one's sleep ends.
type spinTimerService struct {
	mu       sync.Mutex
	heap     spinHeap
	seq      uint64
	running  bool
	sleeping bool         // the runner is blocked on kt
	kt       *kernelTimer // nil: no kernel timer, the runner yields throughout
	ktTried  bool         // kt creation has been attempted
}

var shortTimers spinTimerService

// after schedules fn to run once d from now, skipped if canceled is set
// first. Callers guarantee d < shortTimerCutoff.
func (s *spinTimerService) after(d time.Duration, canceled *atomic.Bool, fn func()) {
	e := spinEntry{due: time.Now().Add(d), fn: fn, canceled: canceled}
	s.mu.Lock()
	e.seq = s.seq
	s.seq++
	heap.Push(&s.heap, e)
	if s.sleeping && s.heap[0].seq == e.seq {
		s.armLocked()
	}
	start := !s.running
	if start {
		s.running = true
	}
	s.mu.Unlock()
	if start {
		go s.run()
	}
}

// armLocked arms the kernel timer to wake the runner spinTail before the
// heap top's deadline, or at once if that moment has passed. s.mu held,
// s.kt non-nil, heap non-empty.
func (s *spinTimerService) armLocked() {
	// A zero duration would disarm the timer; one nanosecond fires now.
	s.kt.arm(max(time.Until(s.heap[0].due)-spinTail, 1))
}

// run drains the heap: fire everything due, wait until the next
// deadline, exit when empty. The top of the heap is re-read under the
// lock every pass; an entry armed with an earlier deadline while the
// runner sleeps re-arms the kernel timer (see after), and one armed
// while it yields is picked up on the next scheduler pass.
func (s *spinTimerService) run() {
	for {
		s.mu.Lock()
		if len(s.heap) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		if wait := time.Until(s.heap[0].due); wait > 0 {
			if !s.ktTried {
				s.ktTried = true
				s.kt = newKernelTimer()
			}
			if s.kt == nil || wait <= spinTail {
				s.mu.Unlock()
				runtime.Gosched()
				continue
			}
			s.armLocked()
			s.sleeping = true
			s.mu.Unlock()
			err := s.kt.wait()
			s.mu.Lock()
			s.sleeping = false
			if err != nil {
				// A kernel timer that cannot be read would strand the
				// runner; yield through every later delay instead.
				s.kt = nil
			}
			s.mu.Unlock()
			continue
		}
		e := heap.Pop(&s.heap).(spinEntry)
		s.mu.Unlock()
		if e.canceled == nil || !e.canceled.Load() {
			// fn is Node.post: when the node's executor is idle the
			// protocol step (a Treq window dispatching its batch, say)
			// runs to completion right here on the runner's stack.
			e.fn()
		}
	}
}
