package sim

import "testing"

// TestBackoff covers the uncapped doubling of the retry schedule that the
// accelerator watchdog, the packet scheduler and the sandbox supervisor
// share; their own tests pin each one's tuning of it and its edge cases.
func TestBackoff(t *testing.T) {
	for i, w := range []Duration{1, 2, 4, 8, 16} {
		if got := Backoff(i+1, 1*Millisecond, Second); got != w*Millisecond {
			t.Errorf("retry %d: backoff %v, want %v", i+1, got, w*Millisecond)
		}
	}
}
