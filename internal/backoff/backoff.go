// Package backoff is the one retry-wait schedule of the service layer:
// base, doubling per consecutive failure, capped. The fleet's down-worker
// re-probe (studysvc, 100ms → 5s), the remote cache tier's down window
// (cache, 100ms → 5s) and the client's reconnect wait (studysvc.Client,
// 100ms → 2s) all step through it; each caller owns its defaults and any
// jitter it adds on top.
package backoff

import "time"

// Next returns the wait that follows cur on the schedule base, 2·base,
// 4·base, … capped at limit. A cur of zero or below starts the schedule,
// so Next(0, base, limit) is the first wait.
func Next(cur, base, limit time.Duration) time.Duration {
	if cur <= 0 {
		return min(base, limit)
	}
	if cur >= limit/2 {
		return limit
	}
	return cur * 2
}
