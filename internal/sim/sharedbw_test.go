package sim

import (
	"fmt"
	"testing"
	"time"
)

// sharedBWWorkload exercises every SharedBW behavior the fast paths must not
// perturb: long uncontended stretches (fast-path territory), simultaneous
// arrival waves, late joiners, a flowCap'd link crossing the cap boundary,
// zero-size transfers, and sleeps racing completions. Every step appends
// name:what@time to the trace.
func sharedBWWorkload(s *Sim) *[]string {
	trace := &[]string{}
	note := func(p *Proc, what string) {
		*trace = append(*trace, fmt.Sprintf("%s:%s@%v", p.Name(), what, p.Now()))
	}
	link := NewSharedBW(s, "link", 1e9, 0)
	capped := NewSharedBW(s, "capped", 4e9, 1e9)

	// Uncontended: back-to-back solo transfers separated by sleeps.
	s.Spawn("solo", func(p *Proc) {
		for i := 0; i < 4; i++ {
			link.Transfer(p, int64(1e6*(i+1)))
			note(p, "xfer")
			p.Sleep(50 * time.Millisecond)
		}
		link.Transfer(p, 0) // zero-size: returns immediately
		note(p, "zero")
	})
	// Simultaneous wave on the capped link, joined by stragglers.
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("wave%d", i)
		size := int64(8e8)
		delay := time.Duration(0)
		if i >= 3 {
			delay = 300 * time.Millisecond // cross the rate/flowCap boundary mid-flight
			size = 2e8
		}
		s.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			capped.Transfer(p, size)
			note(p, "done")
			capped.Transfer(p, 1e7)
			note(p, "tail")
		})
	}
	// Late joiner on the shared link racing the solo stream.
	s.Spawn("late", func(p *Proc) {
		p.Sleep(25 * time.Millisecond)
		link.Transfer(p, 5e8)
		note(p, "done")
	})
	return trace
}

// TestSharedBWFastPathMatchesSlowPath is the kernel regression contract for
// the inline uncontended-Transfer fast path: with every fast path disabled
// (all transfers allocate a flow, schedule a completion event, and park) the
// same workload must observe the identical (time, order) trace.
func TestSharedBWFastPathMatchesSlowPath(t *testing.T) {
	run := func(noFastPath bool) (trail []string, end time.Duration) {
		s := New(11)
		s.noFastPath = noFastPath
		trace := sharedBWWorkload(s)
		end = s.Run()
		return *trace, end
	}
	fast, fastEnd := run(false)
	slow, slowEnd := run(true)
	if fastEnd != slowEnd {
		t.Fatalf("end time diverged: fast %v, slow %v", fastEnd, slowEnd)
	}
	if len(fast) != len(slow) {
		t.Fatalf("trace length diverged: fast %d, slow %d\nfast: %v\nslow: %v", len(fast), len(slow), fast, slow)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("trace diverged at step %d: fast %q, slow %q", i, fast[i], slow[i])
		}
	}
}

// TestTransferInlineAdvance verifies the uncontended fast path actually
// engages: a transfer on an idle link advances virtual time without touching
// the event heap or parking the process.
func TestTransferInlineAdvance(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	s.Spawn("lone", func(p *Proc) {
		before := s.queue.Len()
		bw.Transfer(p, 5e8)
		if got := s.queue.Len(); got != before {
			t.Errorf("uncontended transfer touched the event heap: %d -> %d entries", before, got)
		}
		if p.Now() != 500*time.Millisecond {
			t.Errorf("Now = %v, want 500ms", p.Now())
		}
	})
	if end := s.Run(); end != 500*time.Millisecond {
		t.Fatalf("end = %v, want 500ms", end)
	}
	if got := bw.BytesMoved(); got != 5e8 {
		t.Fatalf("BytesMoved = %v, want 5e8", got)
	}
	if got := bw.MaxFlows(); got != 1 {
		t.Fatalf("MaxFlows = %v, want 1", got)
	}
}

// TestTransferFastPathRespectsFlowCap pins the fast-path rate: a sole flow
// runs at min(rate, flowCap), not the aggregate rate.
func TestTransferFastPathRespectsFlowCap(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 10e9, 1e9)
	var done time.Duration
	s.Spawn("t", func(p *Proc) {
		bw.Transfer(p, 1e9)
		done = p.Now()
	})
	s.Run()
	if done != time.Second {
		t.Fatalf("capped uncontended transfer finished at %v, want exactly 1s", done)
	}
}

// TestBytesMovedExact is the accounting contract: totals equal the bytes
// actually requested, bit-for-bit, even though the completion instant rounds
// up to whole nanoseconds and so overshoots the final credit. The old credit
// loop credited that overshoot (rate 3 B/s serving 10 bytes booked
// 10.000000002 bytes); the clamped accounting must book exactly 10.
func TestBytesMovedExact(t *testing.T) {
	for _, noFast := range []bool{false, true} {
		s := New(1)
		s.noFastPath = noFast
		bw := NewSharedBW(s, "slow", 3, 0) // 3 B/s: every completion overshoots
		sizes := []int64{10, 7, 23, 1, 100}
		var total float64
		for i, size := range sizes {
			size := size
			start := time.Duration(i) * time.Second
			total += float64(size)
			s.Spawn("t", func(p *Proc) {
				p.Sleep(start)
				bw.Transfer(p, size)
			})
		}
		s.Run()
		if got := bw.BytesMoved(); got != total {
			t.Fatalf("noFastPath=%v: BytesMoved = %v, want exactly %v", noFast, got, total)
		}
		if bw.Active() != 0 {
			t.Fatalf("noFastPath=%v: flows still active: %d", noFast, bw.Active())
		}
	}
}

// TestBytesMovedMidFlight verifies the in-flight clamp: accrued credit never
// exceeds a flow's size and never goes negative, so partial-run totals stay
// within [0, requested].
func TestBytesMovedMidFlight(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	for i := 0; i < 3; i++ {
		s.Spawn("t", func(p *Proc) { bw.Transfer(p, 9e8) })
	}
	s.RunUntil(time.Second) // each flow has moved ~1e9/3 bytes
	got := bw.BytesMoved()
	if got < 0 || got > 27e8 {
		t.Fatalf("mid-flight BytesMoved = %v, want within [0, 2.7e9]", got)
	}
	if got < 9e8 {
		t.Fatalf("mid-flight BytesMoved = %v, want ~1e9 accrued", got)
	}
	s.Run()
	if got := bw.BytesMoved(); got != 27e8 {
		t.Fatalf("final BytesMoved = %v, want exactly 2.7e9", got)
	}
}

// TestSharedBWFlowCapMidFlight walks the per-flow cap across its engagement
// boundary (N = rate/flowCap) in both directions within one run:
//
//	t=0:     A, B (2 GB each) on a 4 GB/s link capped at 1 GB/s per flow:
//	         cap engaged (aggregate share 2 GB/s > cap), each runs at 1 GB/s.
//	t=1s:    C, D, E join (0.8 GB each): N=5, fair share 0.8 GB/s < cap,
//	         cap disengaged.
//	t=2s:    C, D, E finish together; A, B have 0.2 GB left, N=2 re-engages
//	         the cap at 1 GB/s.
//	t=2.2s:  A, B finish.
func TestSharedBWFlowCapMidFlight(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 4e9, 1e9)
	finish := map[string]time.Duration{}
	for _, name := range []string{"A", "B"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			bw.Transfer(p, 2e9)
			finish[name] = p.Now()
		})
	}
	for _, name := range []string{"C", "D", "E"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			p.Sleep(time.Second)
			bw.Transfer(p, 8e8)
			finish[name] = p.Now()
		})
	}
	s.Run()
	around := func(got, want time.Duration) bool {
		d := got - want
		return d > -time.Microsecond && d < time.Microsecond
	}
	for _, name := range []string{"C", "D", "E"} {
		if !around(finish[name], 2*time.Second) {
			t.Fatalf("%s finished at %v, want ~2s", name, finish[name])
		}
	}
	for _, name := range []string{"A", "B"} {
		if !around(finish[name], 2200*time.Millisecond) {
			t.Fatalf("%s finished at %v, want ~2.2s", name, finish[name])
		}
	}
	if got := bw.MaxFlows(); got != 5 {
		t.Fatalf("MaxFlows = %d, want 5", got)
	}
}

// TestSharedBWZeroSize pins the degenerate sizes: zero and negative
// transfers return immediately without yielding, registering a flow, or
// moving bytes.
func TestSharedBWZeroSize(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	s.Spawn("z", func(p *Proc) {
		bw.Transfer(p, 0)
		bw.Transfer(p, -5)
		if p.Now() != 0 {
			t.Errorf("zero-size transfer advanced time to %v", p.Now())
		}
		if bw.Active() != 0 {
			t.Errorf("zero-size transfer left %d active flows", bw.Active())
		}
	})
	if end := s.Run(); end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
	if got := bw.BytesMoved(); got != 0 {
		t.Fatalf("BytesMoved = %v, want 0", got)
	}
}

// TestSharedBWSimultaneousWakeOrder pins deterministic wake-ups: flows that
// complete at the same instant wake their processes in arrival order, and
// flows that finish in an earlier wave wake before later waves regardless of
// arrival order.
func TestSharedBWSimultaneousWakeOrder(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	var order []string
	// big arrives first but finishes last; the equal wave (w0..w3) arrives
	// after it and completes together, in arrival order.
	s.Spawn("big", func(p *Proc) {
		bw.Transfer(p, 5e8)
		order = append(order, "big")
	})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Spawn(name, func(p *Proc) {
			bw.Transfer(p, 1e8)
			order = append(order, name)
		})
	}
	s.Run()
	want := []string{"w0", "w1", "w2", "w3", "big"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestUnparkBypassesHeap verifies same-instant wake-ups ride the ready-run
// queue instead of allocating heap events.
func TestUnparkBypassesHeap(t *testing.T) {
	s := New(1)
	var idler *Proc
	woke := false
	s.Spawn("idler", func(p *Proc) {
		idler = p
		p.ParkIdle()
		woke = true
	})
	s.At(time.Second, func() {
		before := s.queue.Len()
		s.Unpark(idler)
		if got := s.queue.Len(); got != before {
			t.Errorf("unpark touched the event heap: %d -> %d entries", before, got)
		}
		if got := s.ready.Len(); got != 1 {
			t.Errorf("ready.Len() = %d, want 1", got)
		}
	})
	s.Run()
	if !woke {
		t.Fatal("idler never resumed")
	}
}

// TestFlowPoolRecycles verifies completed flow records return to the free
// list and subsequent transfers draw from it.
func TestFlowPoolRecycles(t *testing.T) {
	s := New(1)
	bw := NewSharedBW(s, "link", 1e9, 0)
	for i := 0; i < 8; i++ {
		s.Spawn("t", func(p *Proc) { bw.Transfer(p, 1e6) })
	}
	s.Run()
	if len(s.flowFree) == 0 {
		t.Fatal("no flows recycled to the free list")
	}
	before := len(s.flowFree)
	for i := 0; i < 2; i++ { // contended pair: both take the slow path
		s.Spawn("t", func(p *Proc) { bw.Transfer(p, 1e6) })
	}
	s.Run()
	if len(s.flowFree) != before {
		t.Fatalf("flow pool leaked: %d -> %d free", before, len(s.flowFree))
	}
	if bw.ev == nil || bw.ev.idx != -1 {
		t.Fatalf("owned completion event not parked outside the heap: %+v", bw.ev)
	}
}
