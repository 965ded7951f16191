package live

import (
	"container/heap"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the short-timer service. Each runs its own spinTimerService,
// so they neither share the process-wide runner nor depend on its state.

// waitRunnerExit polls until s's runner has exited.
func waitRunnerExit(t *testing.T, s *spinTimerService) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		running := s.running
		s.mu.Unlock()
		if !running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("short-timer runner did not exit after the heap drained")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestShortTimerFiresInDeadlineOrder(t *testing.T) {
	var s spinTimerService
	var got []int // appended on the runner, read after wg.Wait
	var wg sync.WaitGroup
	// Deadlines 300 µs apart dwarf the time between the after calls, so
	// the firing order is the order of the delays, not of the arms.
	delays := []int{5, 2, 0, 4, 1, 3}
	wg.Add(len(delays))
	for _, k := range delays {
		s.after(time.Duration(k)*300*time.Microsecond, nil, func() {
			got = append(got, k)
			wg.Done()
		})
	}
	wg.Wait()
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("fired in order %v, want %v", got, want)
	}
	waitRunnerExit(t, &s)
}

func TestShortTimerEqualDeadlinesFireInArmOrder(t *testing.T) {
	// Equal deadlines are ordered by the heap alone.
	due := time.Now()
	var h spinHeap
	for _, seq := range []uint64{3, 0, 4, 1, 2} {
		heap.Push(&h, spinEntry{due: due, seq: seq})
	}
	for want := uint64(0); h.Len() > 0; want++ {
		if e := heap.Pop(&h).(spinEntry); e.seq != want {
			t.Fatalf("popped seq %d, want %d", e.seq, want)
		}
	}

	// End to end: entries armed while the runner is held inside an
	// earlier entry's fn are all due by the time it returns, and their
	// deadlines never decrease in arm order, so they fire in arm order.
	var s spinTimerService
	gate := make(chan struct{})
	s.after(0, nil, func() { <-gate })
	var got []int
	var wg sync.WaitGroup
	const n = 50
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.after(0, nil, func() { got = append(got, i); wg.Done() })
	}
	close(gate)
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("fired in order %v, want arm order", got)
		}
	}
	waitRunnerExit(t, &s)
}

func TestShortTimerCanceledEntryNeverRuns(t *testing.T) {
	var s spinTimerService
	var ran [6]atomic.Bool
	var flags [6]atomic.Bool
	var wg sync.WaitGroup
	wg.Add(len(ran) / 2)
	for i := range ran {
		s.after(time.Millisecond+time.Duration(i)*100*time.Microsecond, &flags[i], func() {
			ran[i].Store(true)
			if i%2 == 0 {
				wg.Done()
			}
		})
	}
	// Cancel the odd entries, a millisecond before the first deadline.
	for i := 1; i < len(flags); i += 2 {
		flags[i].Store(true)
	}
	wg.Wait()
	waitRunnerExit(t, &s) // every entry, canceled or not, has left the heap
	for i := range ran {
		if want := i%2 == 0; ran[i].Load() != want {
			t.Errorf("entry %d ran=%v, want %v", i, ran[i].Load(), want)
		}
	}
}

// TestShortTimerEarlierDeadlineArmedMidSleep is the re-arm race: an entry
// armed with an earlier deadline while the runner sleeps toward a later
// one must fire on its own deadline, not when the later sleep ends.
func TestShortTimerEarlierDeadlineArmedMidSleep(t *testing.T) {
	var s spinTimerService
	const long = 1900 * time.Microsecond
	longDone := make(chan struct{})
	s.after(long, nil, func() { close(longDone) })
	deadline := time.Now().Add(long / 2)
	for {
		s.mu.Lock()
		sleeping, kt := s.sleeping, s.kt
		tried := s.ktTried
		s.mu.Unlock()
		if sleeping {
			break
		}
		if tried && kt == nil {
			<-longDone
			t.Skip("no kernel timer on this platform; the runner never sleeps")
		}
		if time.Now().After(deadline) {
			<-longDone
			t.Skip("runner not scheduled onto its sleep in time; nothing to race")
		}
		time.Sleep(10 * time.Microsecond)
	}
	const short = 100 * time.Microsecond
	due := time.Now().Add(short)
	fired := make(chan time.Time, 1)
	s.after(short, nil, func() { fired <- time.Now() })
	at := <-fired
	// Without the re-arm the entry waits out the long sleep, ~1.8 ms late.
	if late := at.Sub(due); late > time.Millisecond {
		t.Fatalf("entry armed mid-sleep fired %v late", late)
	}
	<-longDone
	waitRunnerExit(t, &s)
}

func TestShortTimerRunnerExitsAndRestarts(t *testing.T) {
	var s spinTimerService
	for round := 0; round < 3; round++ {
		done := make(chan struct{})
		s.after(50*time.Microsecond, nil, func() { close(done) })
		<-done
		waitRunnerExit(t, &s)
		s.mu.Lock()
		n := len(s.heap)
		s.mu.Unlock()
		if n != 0 {
			t.Fatalf("round %d: heap holds %d entries after the runner exited", round, n)
		}
	}
}

// TestShortTimerIdleLateness checks the precision the service exists for:
// a 200 µs timer on an idle process fires within a scheduler pass or two
// of its deadline. time.AfterFunc misses the same bound by most of a
// millisecond, because it fires through the netpoller's timer granularity.
func TestShortTimerIdleLateness(t *testing.T) {
	var s spinTimerService
	const n = 500
	late := make([]time.Duration, n)
	fired := make(chan time.Time, 1)
	for i := range late {
		due := time.Now().Add(200 * time.Microsecond)
		s.after(200*time.Microsecond, nil, func() { fired <- time.Now() })
		late[i] = (<-fired).Sub(due)
	}
	slices.Sort(late)
	if p50 := late[n/2]; p50 > 100*time.Microsecond {
		t.Fatalf("median lateness %v over %d idle 200µs timers, want under 100µs", p50, n)
	}
}
