package backoff

import (
	"math"
	"testing"
	"time"
)

// TestNextSchedule pins the capped-doubling schedule, stepped from zero,
// at the defaults its callers use and at the edges.
func TestNextSchedule(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name        string
		base, limit time.Duration
		want        []time.Duration
	}{
		{"probe and cache-tier defaults", 100 * ms, 5 * time.Second,
			[]time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5 * time.Second, 5 * time.Second}},
		{"client reconnect defaults", 100 * ms, 2 * time.Second,
			[]time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2 * time.Second, 2 * time.Second}},
		{"cap not a power-of-two multiple", 3 * ms, 10 * ms,
			[]time.Duration{3 * ms, 6 * ms, 10 * ms, 10 * ms}},
		{"base above cap", 5 * ms, 2 * ms,
			[]time.Duration{2 * ms, 2 * ms}},
		{"base equals cap", 7 * ms, 7 * ms,
			[]time.Duration{7 * ms, 7 * ms}},
		{"huge cap does not overflow", time.Duration(math.MaxInt64 / 3), time.Duration(math.MaxInt64),
			[]time.Duration{time.Duration(math.MaxInt64 / 3), 2 * time.Duration(math.MaxInt64/3), time.Duration(math.MaxInt64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cur time.Duration
			for i, want := range tc.want {
				if cur = Next(cur, tc.base, tc.limit); cur != want {
					t.Fatalf("step %d: Next = %v, want %v", i+1, cur, want)
				}
			}
		})
	}
	if got := Next(-time.Second, 4*ms, time.Second); got != 4*ms {
		t.Fatalf("negative cur: Next = %v, want the base", got)
	}
}
