// Package sim provides the deterministic discrete-event simulation engine
// that underpins every hardware and kernel model in this repository.
//
// All simulated state advances inside a single Engine run loop; there is no
// goroutine-level concurrency in simulated code, which makes every
// experiment reproducible bit-for-bit given a seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated instant, measured in nanoseconds since the start of
// the simulation. It is intentionally distinct from time.Time: simulated
// clocks share no epoch with the host.
type Time int64

// Duration is a span of simulated time in nanoseconds. It mirrors
// time.Duration so the familiar unit constants can be used via FromHost.
type Duration int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromHost converts a host time.Duration into a simulated Duration.
func FromHost(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t−u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String renders the instant with microsecond precision, e.g. "1.250000s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Milliseconds reports d as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e6 }

// Microseconds reports d as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

// String renders the duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Backoff is the capped-doubling retry schedule: the first retry waits
// base, each further retry doubles it, capped at limit; retries ≤ 1 wait
// base. The accelerator watchdog's resubmissions, the packet scheduler's
// link-flap retransmissions and the sandbox supervisor's restarts all use
// it. The schedule is part of the deterministic replay surface: changing
// it shifts every retry event in every trace.
func Backoff(retries int, base, limit Duration) Duration {
	backoff := base
	for r := 1; r < retries && backoff < limit; r++ {
		backoff *= 2
	}
	if backoff > limit {
		backoff = limit
	}
	return backoff
}
