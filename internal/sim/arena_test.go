package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestArenaFreeStackReuse is the white-box pin for the coroutine arena: a
// sequential churn of short-lived processes must execute on a handful of
// reused coroutines, not one per process, and finished shells must
// land on the free stack.
func TestArenaFreeStackReuse(t *testing.T) {
	s := New(1)
	const procs = 1000
	for i := 0; i < procs; i++ {
		s.SpawnAt(time.Duration(i)*time.Microsecond, "p", func(p *Proc) {
			p.Sleep(100 * time.Nanosecond)
		})
	}
	s.Run()
	// At most two processes overlap (spacing 1µs, lifetime 0.1µs), so the
	// arena must stay tiny; without reuse it would hold 1000 workers.
	if s.Workers() > 4 {
		t.Fatalf("arena grew to %d workers for %d sequential processes", s.Workers(), procs)
	}
	if len(s.idle) != s.Workers() {
		t.Fatalf("idle stack holds %d of %d workers after drain-out", len(s.idle), s.Workers())
	}
	// The next spawn must come from the free stack, not grow the arena.
	before := s.Workers()
	s.Spawn("again", func(p *Proc) {})
	s.Run()
	if s.Workers() != before {
		t.Fatalf("spawn after quiesce grew the arena: %d -> %d workers", before, s.Workers())
	}
	s.Drain()
}

// TestArenaConcurrentProcsGetDistinctWorkers pins that simultaneous live
// processes each own a coroutine (reuse must never alias two live procs).
func TestArenaConcurrentProcsGetDistinctWorkers(t *testing.T) {
	s := New(1)
	const procs = 64
	seen := map[*Proc]bool{}
	for i := 0; i < procs; i++ {
		s.Spawn("p", func(p *Proc) {
			if seen[p] {
				t.Errorf("proc shell %p assigned to two live processes", p)
			}
			seen[p] = true
			p.Sleep(time.Second) // all 64 overlap
		})
	}
	s.Run()
	if s.Workers() != procs {
		t.Fatalf("nworkers = %d, want %d for %d overlapping processes", s.Workers(), procs, procs)
	}
	if len(seen) != procs {
		t.Fatalf("distinct shells = %d, want %d", len(seen), procs)
	}
	s.Drain()
}

// TestResetMatchesFreshSim is the reset-isolation contract: a workload on a
// simulator that already ran a different workload and was Reset must trace
// byte-identically to the same workload on a fresh simulator — no RNG,
// heap, pool, or ready-queue state may leak across Reset.
func TestResetMatchesFreshSim(t *testing.T) {
	runFresh := func(seed uint64) ([]string, time.Duration) {
		s := New(seed)
		trace := mixedWorkload(s)
		end := s.Run()
		return *trace, end
	}
	// Dirty a simulator with one workload, then Reset and re-run.
	s := New(99)
	mixedWorkload(s)
	s.Run()
	for _, seed := range []uint64{7, 99, 12345} {
		s.Reset(seed)
		trace := mixedWorkload(s)
		end := s.Run()
		wantTrace, wantEnd := runFresh(seed)
		if end != wantEnd {
			t.Fatalf("seed %d: end time %v on reset sim, %v on fresh sim", seed, end, wantEnd)
		}
		if fmt.Sprint(*trace) != fmt.Sprint(wantTrace) {
			t.Fatalf("seed %d: trace diverged after Reset\nreset: %v\nfresh: %v", seed, *trace, wantTrace)
		}
	}
}

// TestResetPanicsNonQuiesced pins that a simulator with live state refuses
// to rewind.
func TestResetPanicsNonQuiesced(t *testing.T) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) { p.Sleep(10 * time.Second) })
	s.RunUntil(time.Second) // sleeper still live
	defer func() {
		if recover() == nil {
			t.Error("Reset of a non-quiesced simulator did not panic")
		}
	}()
	s.Reset(2)
}

// TestArenaGetDiscardsNonQuiesced pins the Arena's fallback: a simulation
// that leaks live processes is abandoned, not reused, and the replacement
// is a clean simulator. The abandoned simulator's coroutines — including a
// process parked forever mid-body — are stopped, not stranded.
func TestArenaGetDiscardsNonQuiesced(t *testing.T) {
	baseline := runtime.NumGoroutine()
	a := NewArena()
	s1 := a.Get(1)
	s1.Spawn("sleeper", func(p *Proc) { p.Sleep(10 * time.Second) })
	unwound, returned := false, false
	s1.Spawn("idler", func(p *Proc) {
		defer func() { unwound = true }()
		p.ParkIdle() // nobody ever unparks it
		returned = true
	})
	s1.RunUntil(time.Second)
	s2 := a.Get(2)
	if !unwound {
		t.Fatal("discarding the simulator did not unwind the parked process")
	}
	// A stopped park must not return: a Queue.Recv loop would re-park and
	// spin forever.
	if returned {
		t.Fatal("a stopped process returned from its park instead of unwinding")
	}
	if s2 == s1 {
		t.Fatal("arena reused a non-quiesced simulator")
	}
	if a.Discarded != 1 {
		t.Fatalf("Discarded = %d, want 1", a.Discarded)
	}
	if s2.Now() != 0 || !s2.Quiesced() {
		t.Fatalf("replacement sim not clean: now=%v quiesced=%v", s2.Now(), s2.Quiesced())
	}
	a.Drain()
	if s1.Workers() != 0 {
		t.Fatalf("discarded sim still owns %d coroutines", s1.Workers())
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines fails t unless the goroutine count returns to baseline.
// Drain returns once every coroutine has finished, but the runtime may
// retire their goroutines a moment later, so give it a few seconds.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: baseline %d, after drain %d", baseline, n)
	}
}

// TestArenaReuseAcrossGets pins that consecutive Get calls on quiesced runs
// return the same simulator with its arena intact.
func TestArenaReuseAcrossGets(t *testing.T) {
	a := NewArena()
	s := a.Get(1)
	for i := 0; i < 8; i++ {
		s.Spawn("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	s.Run()
	workers := s.Workers()
	if workers == 0 {
		t.Fatal("no arena workers after a run")
	}
	if got := a.Get(2); got != s {
		t.Fatal("arena did not reuse the quiesced simulator")
	}
	if s.Workers() != workers {
		t.Fatalf("workers changed across Get: %d -> %d", workers, s.Workers())
	}
	if a.Discarded != 0 {
		t.Fatalf("Discarded = %d, want 0", a.Discarded)
	}
	a.Drain()
	if s.Workers() != 0 {
		t.Fatalf("workers = %d after Drain, want 0", s.Workers())
	}
}

// TestDrainReturnsGoroutinesToBaseline pins, under the race detector in CI,
// that a drained simulator holds no goroutines at all: the process arena is
// fully reclaimed, synchronously.
func TestDrainReturnsGoroutinesToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(1)
	for i := 0; i < 100; i++ {
		s.Spawn("w", func(p *Proc) { p.Sleep(time.Duration(i%7) * time.Millisecond) })
	}
	s.Run()
	if s.Workers() == 0 {
		t.Fatal("no arena workers after a run")
	}
	s.Drain()
	if s.Workers() != 0 {
		t.Fatalf("Workers = %d after Drain, want 0", s.Workers())
	}
	waitGoroutines(t, baseline)
	// A drained simulator is still usable: the arena regrows on demand.
	ran := false
	s.Spawn("again", func(p *Proc) { ran = true })
	s.Run()
	if !ran {
		t.Fatal("spawn after Drain did not run")
	}
	s.Drain()
}

// TestContendedResourceSteadyStateDoesNotAllocate pins the 0 B/op claim of
// the benchmark ledger in a form `go test` enforces: once pools, arena, and
// queue backings are warm, a contended acquire/hold/release storm must not
// allocate per operation (the old waiter queue re-allocated its backing
// array every few operations — the 16 B/op spill).
func TestContendedResourceSteadyStateDoesNotAllocate(t *testing.T) {
	s := New(1)
	r := NewResource(s, "xs", 4)
	cycle := func(ops int) {
		for w := 0; w < 16; w++ {
			s.Spawn("w", func(p *Proc) {
				for i := 0; i < ops; i++ {
					r.Use(p, time.Microsecond)
				}
			})
		}
		s.Run()
	}
	cycle(100) // warm the event pool, coroutine arena, and queue backings
	const opsPerCycle = 200 * 16
	avg := testing.AllocsPerRun(5, func() { cycle(200) })
	// A cycle allocates its 16 spawn closures; per-operation allocation
	// would show up as thousands.
	if avg > opsPerCycle/10 {
		t.Errorf("steady-state contention allocates: %.0f allocs per %d-op cycle", avg, opsPerCycle)
	}
	s.Drain()
}

// FuzzResetIsolation fuzzes the reset-isolation contract over generated
// workloads: two back-to-back runs on one reused simulator must trace
// byte-identically to the same two runs on fresh simulators. The fuzz bytes
// choose per-process op sequences (sleeps, resource holds, transfers,
// queue sends) and the seeds.
func FuzzResetIsolation(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte{0x01, 0x42, 0x90, 0x07})
	f.Add(uint64(7), uint64(7), []byte{0xff, 0x00, 0x13, 0x37, 0xee, 0x42})
	f.Add(uint64(42), uint64(99), []byte{})
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		workload := func(s *Sim) *[]string {
			trace := &[]string{}
			res := NewResource(s, "r", 2)
			bw := NewSharedBW(s, "bw", 1e9, 0)
			q := NewQueue(s, "q")
			for i, b := range ops {
				name := fmt.Sprintf("p%d", i)
				op, amt := b>>6, time.Duration(b&0x3f)
				s.SpawnAt(amt*time.Millisecond, name, func(p *Proc) {
					switch op {
					case 0:
						p.Sleep(amt * time.Microsecond)
					case 1:
						res.Acquire(p)
						p.Sleep(amt * time.Microsecond)
						res.Release()
					case 2:
						bw.Transfer(p, int64(amt+1)*100_000)
					case 3:
						q.Send(name)
						if v, ok := q.TryRecv(); ok {
							p.Sleep(time.Duration(len(v.(string))) * time.Microsecond)
						}
					}
					*trace = append(*trace, fmt.Sprintf("%s@%v+%d", name, p.Now(), s.RNG().Intn(1000)))
				})
			}
			return trace
		}
		fresh := func(seed uint64) []string {
			s := New(seed)
			tr := workload(s)
			s.Run()
			return *tr
		}
		wantA, wantB := fresh(seedA), fresh(seedB)

		a := NewArena()
		sA := a.Get(seedA)
		trA := workload(sA)
		sA.Run()
		sB := a.Get(seedB)
		trB := workload(sB)
		sB.Run()
		if a.Discarded != 0 {
			t.Fatalf("workload did not quiesce: %d discards", a.Discarded)
		}
		if fmt.Sprint(*trA) != fmt.Sprint(wantA) {
			t.Fatalf("first arena run diverged from fresh sim\narena: %v\nfresh: %v", *trA, wantA)
		}
		if fmt.Sprint(*trB) != fmt.Sprint(wantB) {
			t.Fatalf("second (reused) arena run diverged from fresh sim\narena: %v\nfresh: %v", *trB, wantB)
		}
		a.Drain()
	})
}
