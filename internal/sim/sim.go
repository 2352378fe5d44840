// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives every timed component in this repository: storage media,
// network fabric, DAOS engines, and the benchmark clients. Simulated
// "processes" are coroutines (iter.Pull): Run and RunUntil hold the only
// dispatch loop, on the caller's goroutine, and it pops events in (time,
// insertion-sequence) order. Waking or spawning a process switches into its
// coroutine; the process runs until it parks or finishes, which switches
// straight back to the loop. Exactly one coroutine runs at any instant, so
// event ordering is fully deterministic and no locking is needed.
//
// The design follows the classic process-interaction style (SimPy, CSIM):
// a process calls Sleep, acquires Resources, transfers bytes over SharedBW
// links, or blocks on Queues, and the scheduler advances virtual time between
// those interactions. Virtual time is a time.Duration measured from the start
// of the run.
//
// Four mechanisms keep the hot loop cheap without changing observable order:
//
//   - Timer-only interactions avoid parking entirely. When a process Sleeps
//     and no other event is due at or before its wake time, the kernel
//     advances virtual time inline in the calling process instead of
//     scheduling a wake event and switching back to the dispatch loop. A
//     Transfer that joins an idle SharedBW link gets the same treatment: a
//     sole flow is a pure timer (size over the per-flow rate), so the
//     kernel advances time inline with no event, no flow record, and no
//     park/unpark.
//
//   - Events are plain pooled structs, not closures. Process wake-ups and
//     SharedBW completions carry a target pointer instead of an allocated
//     func, popped events are recycled through a free list (SharedBW flow
//     records are pooled the same way), and the event heap is hand-rolled
//     so pushes do not allocate.
//
//   - Same-instant wake-ups bypass the event heap. Unparking a process
//     always resumes it at the current instant, so unpark appends to a
//     FIFO ready-run queue instead of allocating a heap event; the
//     dispatch loop merges the ready queue with the heap by (time, seq),
//     which drains a wave of N simultaneous completions with N O(1) pops
//     instead of N heap push/pop round trips. Entries carry the sequence
//     number they would have been stamped with, so firing order is exactly
//     that of the heap-event formulation.
//
//   - Process coroutines come from a per-Sim arena. A finished process
//     body puts its Proc shell on a free stack and yields instead of
//     returning, and the next Spawn resumes that same coroutine with the
//     new body — no goroutine or stack creation, no allocation. Sim.Reset
//     rewinds a drained simulator to its post-New state while keeping the
//     arena, the event and flow pools, and the heap and ready-queue
//     storage, so a sweep can run thousands of simulations on one kernel's
//     allocations (see Arena).
package sim

import (
	"errors"
	"fmt"
	"iter"
	"time"
)

// KernelVersion identifies the observable behavior of the whole simulation
// stack: the event kernel plus every cost model layered on it (fabric,
// media, engine, placement, protocol paths). It participates in every
// content-addressed point-cache key (see internal/cache and the key builder
// in internal/core), so bumping it invalidates all previously cached study
// results at once. Bump it whenever a change anywhere in the simulated
// physics alters any measured number; a pure refactor that keeps traces
// byte-identical does not need a bump. Version 2 is the pooled-event,
// inline-fast-path kernel. Version 3 adds the zero-copy scatter-gather
// data path with no-materialize reads (value-neutral) and the O(1)
// virtual-time fair-share accounting in SharedBW, whose floating-point
// reordering can shift completion instants by a nanosecond.
const KernelVersion = 3

// maxTime is the largest representable virtual time; Run uses it as the
// inline-advance horizon.
const maxTime = time.Duration(1<<63 - 1)

// Sim is a discrete-event scheduler. The zero value is not usable; call New.
type Sim struct {
	now      time.Duration
	seq      uint64
	queue    eventHeap
	free     []*event        // recycled events; popped entries return here
	flowFree []*flow         // recycled SharedBW flow records
	ready    fifo[readyProc] // procs unparked at the current instant
	nproc    int             // live (spawned, not yet finished) processes
	parked   int             // processes blocked on a resource/queue (no pending event)
	rng      *RNG

	// procs is every Proc shell the arena owns (live and idle) until Drain
	// stops their coroutines; idle is its free stack of shells whose
	// coroutines finished a body and wait for the next spawn.
	procs []*Proc
	idle  []*Proc

	// limit is the horizon of the innermost Run/RunUntil drive; the Sleep
	// fast path must not advance time past it.
	limit time.Duration
	// noFastPath disables the inline fast paths — Sleep and uncontended
	// SharedBW.Transfer — (test hook: the regression tests compare fast
	// and slow traces for identical order).
	noFastPath bool
}

// New returns a simulator whose random source is seeded with seed.
func New(seed uint64) *Sim {
	return &Sim{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Sim) RNG() *RNG { return s.rng }

// event is a scheduled occurrence. Events with equal times fire in insertion
// order, which keeps runs reproducible. Exactly one of fire, proc, spawn, or
// bw is set: fire is a generic callback, proc wakes a parked process, spawn
// starts a new process (the event carries the body and name; the process
// draws its coroutine from the arena only when the event fires, so a batch
// of pre-scheduled future processes reuses the coroutines of the ones that
// finished before them), and bw checks a SharedBW completion (gen guards
// against stale, superseded completions). Events are pooled: once popped
// they are reset and recycled, so no component may retain a popped event.
type event struct {
	at    time.Duration
	seq   uint64
	fire  func()
	proc  *Proc
	spawn func(p *Proc)
	sname string
	bw    *SharedBW
	gen   uint64
	// idx is the event's position in the heap (-1 when unqueued); it lets
	// SharedBW reschedule its owned completion event in place.
	idx int
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It avoids
// container/heap's interface{} indirection on the hottest kernel path and
// tracks each event's position so queued events can be re-keyed in place.
type eventHeap []*event

// Len returns the number of queued events.
func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].idx = i
		h[parent].idx = parent
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		h[i].idx = i
		h[small].idx = small
		i = small
	}
}

func (h *eventHeap) push(e *event) {
	e.idx = len(*h)
	*h = append(*h, e)
	h.siftUp(e.idx)
}

// fix restores heap order after the event at position i was re-keyed.
func (h eventHeap) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *eventHeap) pop() *event {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].idx = 0
	q[n] = nil
	q = q[:n]
	*h = q
	q.siftDown(0)
	e.idx = -1 // after the swap: popping the last element must leave -1
	return e
}

// alloc takes an event from the free list (or allocates one), stamping it
// with the given time and the next insertion sequence.
func (s *Sim) alloc(t time.Duration) *event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	return e
}

// recycle resets a popped event and returns it to the free list.
func (s *Sim) recycle(e *event) {
	e.fire = nil
	e.proc = nil
	e.spawn = nil
	e.sname = ""
	e.bw = nil
	e.gen = 0
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would violate causality.
func (s *Sim) At(t time.Duration, fn func()) {
	e := s.alloc(t)
	e.fire = fn
	s.queue.push(e)
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// schedProc schedules a wake-up for p at absolute time t without allocating a
// closure: the dispatch loop resumes p directly when the event pops.
func (s *Sim) schedProc(t time.Duration, p *Proc) {
	e := s.alloc(t)
	e.proc = p
	s.queue.push(e)
}

// schedBW (re)schedules b's completion check for absolute time t. Each
// SharedBW owns one persistent event: rescheduling while it is still queued
// updates it in place and re-sifts (an arrival wave that supersedes the
// completion N times costs N sifts, not N pushes plus N stale pops later),
// and the event is pushed afresh only after it has popped. The event always
// carries a freshly consumed sequence number, exactly as if a new event had
// been allocated, so heap order is identical to the push-and-supersede
// formulation. Owned events never enter the recycling pool.
func (s *Sim) schedBW(t time.Duration, b *SharedBW) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := b.ev
	if e == nil {
		e = &event{bw: b, idx: -1}
		b.ev = e
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	e.gen = b.gen
	if e.idx >= 0 {
		s.queue.fix(e.idx)
	} else {
		s.queue.push(e)
	}
}

// readyProc is a pending same-instant resumption. seq is the insertion
// sequence the wake-up would have carried as a heap event, so the dispatch
// loop can merge the ready queue with the heap in exact (time, seq) order.
type readyProc struct {
	seq  uint64
	proc *Proc
}

// readyFirst reports whether the front ready entry precedes the heap root
// in (time, seq) order. Ready entries are always stamped at the current
// instant, and the heap can never hold an event in the past, so the heap
// wins only with an event at now bearing a smaller sequence. Must not be
// called with an empty ready queue.
func (s *Sim) readyFirst() bool {
	return len(s.queue) == 0 || s.queue[0].at > s.now || s.queue[0].seq > s.ready.buf[s.ready.head].seq
}

// dispatch is the kernel's one dispatch loop, run on the Run/RunUntil
// caller's goroutine. It fires events in (time, seq) order until the queue
// drains or the next event lies past s.limit. Waking or spawning a process
// resumes its coroutine, which runs until it parks or finishes its body and
// then switches straight back here.
func (s *Sim) dispatch() {
	for {
		if s.ready.Len() > 0 {
			if s.readyFirst() {
				s.ready.Pop().proc.resume()
				continue
			}
		} else if len(s.queue) == 0 {
			return
		}
		if s.queue[0].at > s.limit {
			if s.now < s.limit {
				s.now = s.limit
			}
			return
		}
		e := s.queue.pop()
		s.now = e.at
		switch {
		case e.proc != nil:
			p := e.proc
			s.recycle(e)
			p.resume()
		case e.bw != nil:
			// Owned by the SharedBW (see schedBW); never recycled.
			if e.gen == e.bw.gen {
				e.bw.complete()
			}
		case e.spawn != nil:
			// Bind the new process to an arena coroutine now, at fire time:
			// shells freed by processes that finished earlier in the run are
			// on the free stack and get reused.
			p := s.allocProc()
			p.name = e.sname
			p.body = e.spawn
			s.recycle(e)
			p.resume()
		case e.fire != nil:
			fn := e.fire
			s.recycle(e)
			fn()
		default:
			s.recycle(e) // cancelled/stale
		}
	}
}

// Run drives the simulation until no events remain. It returns the final
// virtual time. If processes are still blocked on resources when the event
// queue drains, Run panics: that is a deadlock in the modelled system. A
// panic in a process body surfaces from Run with its original value.
func (s *Sim) Run() time.Duration {
	s.limit = maxTime
	s.dispatch()
	if s.parked > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) parked with no pending events at %v", s.parked, s.now))
	}
	return s.now
}

// RunUntil drives the simulation until virtual time passes limit or no
// events remain, whichever comes first. Processes may still be live when it
// returns. It reports whether the event queue drained.
func (s *Sim) RunUntil(limit time.Duration) bool {
	s.limit = limit
	s.dispatch()
	return len(s.queue) == 0
}

// Quiesced reports whether the simulation has fully drained: no live or
// parked processes, no pending events, no ready resumptions. A quiesced Sim
// may be rewound with Reset.
func (s *Sim) Quiesced() bool {
	return s.nproc == 0 && s.parked == 0 && len(s.queue) == 0 && s.ready.Len() == 0
}

// Reset rewinds a quiesced simulator to the state New(seed) would return,
// while keeping every allocation worth keeping: the event and flow free
// lists, the heap and ready-queue backing arrays, and the arena of idle
// process coroutines. A run on a Reset simulator is byte-identical to a run
// on a fresh one — virtual time, the insertion-sequence counter, and the
// random stream all restart from their seeds, and pooled storage carries no
// observable state (recycled events and flows are cleared, and the heap and
// ready backings are length-zero). Reset panics on a simulator that has not
// quiesced: live processes cannot be rewound.
func (s *Sim) Reset(seed uint64) {
	if !s.Quiesced() {
		panic(fmt.Sprintf("sim: Reset of a non-quiesced simulator: %d live, %d parked, %d events, %d ready",
			s.nproc, s.parked, len(s.queue), s.ready.Len()))
	}
	s.now = 0
	s.seq = 0
	s.limit = 0
	s.rng.Seed(seed)
}

// Drain stops every coroutine the simulator owns — idle shells and, on a
// simulator that did not quiesce, processes still parked mid-body — and
// returns once their goroutines have exited. It must only be called while
// no simulation is being driven — the natural moment is a sweep worker
// retiring its Sim. A stopped process unwinds from its park point (its
// deferred calls run), so a non-quiesced simulator is not usable after
// Drain; a quiesced one is, and a later Spawn simply regrows the arena.
func (s *Sim) Drain() {
	for _, p := range s.procs {
		p.stop()
	}
	clear(s.procs)
	s.procs = s.procs[:0]
	clear(s.idle)
	s.idle = s.idle[:0]
}

// Workers returns the number of live arena coroutines (idle shells plus
// running processes). It exists for leak tests: after a Sim is drained it
// must be zero.
func (s *Sim) Workers() int { return len(s.procs) }

// Proc is a handle held by a simulated process. All blocking operations
// (Sleep, Resource.Acquire, Queue.Recv, ...) take the Proc so the kernel can
// park and resume its coroutine.
type Proc struct {
	sim  *Sim
	name string
	body func(p *Proc)

	// resume switches from the dispatch loop into the coroutine until the
	// process parks or finishes its body; yield switches back, reporting
	// false once stop has ended the coroutine.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
}

// errStopped unwinds a process body parked in a coroutine that Drain stops.
var errStopped = errors.New("sim: process stopped by Drain")

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Spawn creates a process that begins running body at the current virtual
// time. body executes on its own coroutine, in strict alternation with the
// dispatch loop and every other process, so no locking is required inside
// the simulation.
func (s *Sim) Spawn(name string, body func(p *Proc)) {
	s.SpawnAt(s.now, name, body)
}

// SpawnAt creates a process that begins running body at virtual time t. The
// process is bound to an arena coroutine — a shell recycled from a finished
// process when one is free, a fresh coroutine otherwise — when its spawn
// event fires, so processes scheduled for the future reuse the coroutines
// of processes that finish before then.
func (s *Sim) SpawnAt(t time.Duration, name string, body func(p *Proc)) {
	s.nproc++
	e := s.alloc(t)
	e.spawn = body
	e.sname = name
	s.queue.push(e)
}

// allocProc takes an idle process shell from the arena's free stack, or
// creates a fresh coroutine (which starts at its first resume).
func (s *Sim) allocProc() *Proc {
	if n := len(s.idle); n > 0 {
		p := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		return p
	}
	p := &Proc{sim: s}
	p.resume, p.stop = iter.Pull(p.loop)
	s.procs = append(s.procs, p)
	return p
}

// loop is an arena coroutine's lifetime: run the body the spawn installed,
// put the shell on the free stack, and yield until the next spawn resumes
// it. It returns when Drain stops it, idle or parked mid-body.
func (p *Proc) loop(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r) // iter.Pull re-raises it from resume, i.e. from Run
		}
	}()
	p.yield = yield
	for {
		body := p.body
		p.body = nil // an idle shell must not pin the body's captures
		body(p)
		s := p.sim
		s.nproc--
		s.idle = append(s.idle, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// yieldWait parks the calling process until another event resumes it. The
// caller must have arranged for a wakeup before calling.
func (p *Proc) yieldWait() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// park blocks the process indefinitely; some other component must call
// unpark to schedule its resumption. The parked counter lets Run distinguish
// a drained simulation from a deadlocked one.
func (p *Proc) park() {
	p.sim.parked++
	p.yieldWait()
	p.sim.parked--
}

// unpark schedules p to resume at the current virtual time. It enqueues on
// the ready-run queue rather than the event heap: the resumption is stamped
// with the sequence number a heap event would have carried, so the dispatch
// loop fires it in the identical (time, seq) slot at O(1) cost.
func (s *Sim) unpark(p *Proc) {
	s.ready.Push(readyProc{seq: s.seq, proc: p})
	s.seq++
}

// ParkIdle blocks the process until Unpark, without counting toward deadlock
// detection. It is the building block for external blocking primitives
// (mailbox receives, future waits) where indefinite idling is legitimate:
// a server loop parked on an empty mailbox when the run drains is idle, not
// deadlocked. Drain stops such a process where it parks.
func (p *Proc) ParkIdle() { p.yieldWait() }

// Unpark schedules a process blocked in ParkIdle to resume at the current
// virtual time.
func (s *Sim) Unpark(p *Proc) { s.unpark(p) }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, letting same-time events fire
// in order).
//
// Fast path: when no other event is due at or before the wake time (and the
// wake time is within the current drive's horizon), sleeping cannot
// interleave with anything, so the kernel advances virtual time inline and
// returns without parking the process or touching the event heap. Relative
// event order is exactly that of the slow path.
func (p *Proc) Sleep(d time.Duration) {
	s := p.sim
	if d < 0 {
		d = 0
	}
	wake := s.now + d
	// wake >= s.now rejects additive overflow; the slow path's alloc then
	// panics on it loudly instead of moving the clock backward. A pending
	// ready entry is an event due now, so it also forces the slow path.
	if !s.noFastPath && wake >= s.now && wake <= s.limit && s.ready.Len() == 0 && (len(s.queue) == 0 || s.queue[0].at > wake) {
		s.now = wake
		return
	}
	s.schedProc(wake, p)
	p.yieldWait()
}

// Yield relinquishes control until all previously-scheduled events at the
// current instant have fired. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// WaitGroup coordinates fork/join between simulated processes, mirroring
// sync.WaitGroup but driven by virtual time.
type WaitGroup struct {
	sim     *Sim
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup bound to s.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{sim: s} }

// Add increments the counter by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the counter, waking all waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			wg.sim.unpark(w)
		}
		wg.waiters = nil
	}
}

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.park()
}

// Go spawns body as a child process tracked by the WaitGroup.
func (wg *WaitGroup) Go(name string, body func(p *Proc)) {
	wg.Add(1)
	wg.sim.Spawn(name, func(p *Proc) {
		defer wg.Done()
		body(p)
	})
}
