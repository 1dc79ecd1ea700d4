package netsched

import (
	"testing"

	"psbox/internal/sim"
)

// TestRetryBackoffGoldenSchedule pins the retransmission delays of the
// scheduler's tuning: 5 ms doubling to an 80 ms ceiling (the BeagleBone/
// WiLink8 calibration of §6.2). The delays position every requeue event
// in the engine's queue, so the sequence is part of the deterministic
// replay surface — a change here invalidates every trace and checkpoint
// golden in the repo. sim's TestBackoff covers the schedule's shape; this
// test pins the scheduler's tuning of it.
func TestRetryBackoffGoldenSchedule(t *testing.T) {
	want := []sim.Duration{
		5 * sim.Millisecond,  // retry 1
		10 * sim.Millisecond, // retry 2
		20 * sim.Millisecond, // retry 3
		40 * sim.Millisecond, // retry 4
		80 * sim.Millisecond, // retry 5
		80 * sim.Millisecond, // retry 6: capped
		80 * sim.Millisecond, // retry 7: stays capped
	}
	for i, w := range want {
		if got := sim.Backoff(i+1, retryBackoff, retryBackoffCap); got != w {
			t.Errorf("retry %d: backoff %v, want %v", i+1, got, w)
		}
	}
}

// TestRetryBackoffDegenerateConfigs covers a retransmission tuning whose
// cap equals its base: every retry waits the same.
func TestRetryBackoffDegenerateConfigs(t *testing.T) {
	base := 5 * sim.Millisecond
	for retry := 1; retry <= 4; retry++ {
		if got := sim.Backoff(retry, base, base); got != base {
			t.Errorf("cap==base, retry %d: backoff %v, want %v", retry, got, base)
		}
	}
}
