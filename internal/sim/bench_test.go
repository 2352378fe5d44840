package sim

import (
	"testing"
	"time"
)

func BenchmarkEventScheduling(b *testing.B) {
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if s.queue.Len() > 4096 {
			s.RunUntil(s.Now() + time.Millisecond)
		}
	}
	s.Run()
}

func BenchmarkProcessSwitch(b *testing.B) {
	// Measures one Sleep round trip: with nothing else scheduled it takes
	// the inline fast path and never parks (see BenchmarkProcessPark).
	s := New(1)
	n := b.N
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	s.Run()
}

func BenchmarkProcessPark(b *testing.B) {
	// Two processes ping-pong one message through a pair of Queues: every
	// iteration is a real park and resume of each process (two process
	// switches), the cost the inline Sleep path of BenchmarkProcessSwitch
	// never pays.
	s := New(1)
	ping, pong := NewQueue(s, "ping"), NewQueue(s, "pong")
	n := b.N
	s.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Send(nil)
			pong.Recv(p)
		}
		ping.Close()
	})
	s.Spawn("pong", func(p *Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkSharedBWManyFlows(b *testing.B) {
	// Fair-share recomputation with 64 concurrent flows.
	s := New(1)
	bw := NewSharedBW(s, "link", 1e12, 0)
	n := b.N
	for f := 0; f < 64; f++ {
		s.Spawn("flow", func(p *Proc) {
			for i := 0; i < n/64+1; i++ {
				bw.Transfer(p, 1<<20)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkSharedBWUncontended(b *testing.B) {
	// Back-to-back transfers on an otherwise idle link: each one is a pure
	// timer, so the inline fast path should complete it with no event, no
	// park/unpark, and no allocation.
	s := New(1)
	bw := NewSharedBW(s, "link", 1e12, 0)
	n := b.N
	s.Spawn("t", func(p *Proc) {
		for i := 0; i < n; i++ {
			bw.Transfer(p, 1<<20)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkSharedBWCompletionWave(b *testing.B) {
	// 256 equal flows repeatedly arrive together and finish at the same
	// virtual instant: the worst case for per-event credit loops and
	// per-wakeup heap traffic. Measures cost per flow completion.
	s := New(1)
	bw := NewSharedBW(s, "link", 1e12, 0)
	const flows = 256
	n := b.N
	for f := 0; f < flows; f++ {
		s.Spawn("flow", func(p *Proc) {
			for i := 0; i < n/flows+1; i++ {
				bw.Transfer(p, 1<<20)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkResourceContention(b *testing.B) {
	s := New(1)
	r := NewResource(s, "xs", 4)
	n := b.N
	for w := 0; w < 16; w++ {
		s.Spawn("w", func(p *Proc) {
			for i := 0; i < n/16+1; i++ {
				r.Use(p, time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkResourceUncontended(b *testing.B) {
	// A lone process cycling acquire/hold/release on an idle resource: both
	// the acquire and the release must complete inline (no event, no ready
	// queue, no park), and the 1µs hold rides the Sleep fast path.
	s := New(1)
	r := NewResource(s, "xs", 1)
	n := b.N
	s.Spawn("w", func(p *Proc) {
		for i := 0; i < n; i++ {
			r.Use(p, time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

func BenchmarkSpawn(b *testing.B) {
	// Process churn: spawn waves of trivial processes and drain them. This is
	// the lifecycle cost a study point pays for every simulated client op
	// (arena coroutine bind, first resume, finish) amortized per process.
	s := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Spawn("p", func(p *Proc) {})
		if i%256 == 255 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(7)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
