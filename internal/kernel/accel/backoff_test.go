package accel

import (
	"testing"

	"psbox/internal/sim"
)

// TestBackoffGoldenSchedule pins the watchdog's resubmission delays:
// wdBackoffBase 2 ms doubling to the wdBackoffCap ceiling of 32 ms. These
// delays position every requeue event in the engine's queue, so the
// sequence is part of the deterministic replay surface — a change here
// invalidates every trace and checkpoint golden in the repo. sim's
// TestBackoff covers the schedule's shape; this test pins the watchdog's
// tuning of it.
func TestBackoffGoldenSchedule(t *testing.T) {
	want := []sim.Duration{
		2 * sim.Millisecond,  // retry 1
		4 * sim.Millisecond,  // retry 2
		8 * sim.Millisecond,  // retry 3
		16 * sim.Millisecond, // retry 4
		32 * sim.Millisecond, // retry 5
		32 * sim.Millisecond, // retry 6: capped
		32 * sim.Millisecond, // retry 7: stays capped
	}
	for i, w := range want {
		if got := sim.Backoff(i+1, wdBackoffBase, wdBackoffCap); got != w {
			t.Errorf("retry %d: backoff %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffProperties covers the shapes a base and a cap give a
// resubmission schedule: delays stay within [base, cap], never shrink,
// truncate exactly at a non-power-of-two cap, and treat retry counts ≤ 0
// as the first retry.
func TestBackoffProperties(t *testing.T) {
	base, limit := 3*sim.Millisecond, 20*sim.Millisecond
	prev := sim.Duration(0)
	for retry := 1; retry <= 10; retry++ {
		got := sim.Backoff(retry, base, limit)
		if got < base || got > limit {
			t.Errorf("retry %d: backoff %v outside [%v, %v]", retry, got, base, limit)
		}
		if got < prev {
			t.Errorf("retry %d: backoff %v shrank from %v", retry, got, prev)
		}
		prev = got
	}
	// A non-power-of-two cap still truncates exactly at the cap.
	if got := sim.Backoff(4, base, limit); got != limit {
		t.Errorf("capped backoff = %v, want the 20 ms cap (3→6→12→24 overshoots)", got)
	}
	// Retry 0 and negative retries behave like the first retry: base.
	for _, r := range []int{0, -1} {
		if got := sim.Backoff(r, base, limit); got != base {
			t.Errorf("retry %d: backoff %v, want base %v", r, got, base)
		}
	}
}
