// Package a exercises maporder's read-modify-write half: accumulation
// inside a range over a map is flagged even when routed through
// intermediate locals or helper calls, which no op-assign shows.
package a

import (
	"maporder/flow/b"
	"math"
	"time"
)

// The accumulation hides behind an intermediate local.
func ViaLocal(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		t := v * 2
		sum = sum + t // want `float accumulation into sum depends on map iteration order`
	}
	return sum
}

// The accumulation hides behind a helper call in another package.
func ViaHelper(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum = b.Add(sum, v) // want `float accumulation into sum depends on map iteration order`
	}
	return sum
}

// String concatenation order is observable too.
func Concat(m map[string]string) string {
	out := ""
	for k := range m {
		line := k + ";"
		out = out + line // want `string accumulation into out depends on map iteration order`
	}
	return out
}

// Min/max tracking reads the loop value without folding the accumulator
// back in: order-free, legal.
func MinTrack(m map[string]float64) float64 {
	best := -1.0
	for _, v := range m {
		if best < 0 || v < best {
			best = v
		}
	}
	return best
}

// The min builtin is commutative and exact: legal.
func MinBuiltin(m map[string]float64) float64 {
	lo := math.Inf(1)
	for _, v := range m {
		lo = min(lo, v)
	}
	return lo
}

// math.Max likewise.
func MaxMath(m map[string]float64) float64 {
	hi := math.Inf(-1)
	for _, v := range m {
		hi = math.Max(hi, v)
	}
	return hi
}

// Integer sums are exact in any order: legal.
func IntSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n = n + v
	}
	return n
}

// A helper that drops its inputs breaks the cycle: legal.
func ViaFresh(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum = b.Fresh(sum, v)
	}
	return sum
}

// Scaling the accumulator without reading the loop variables is
// order-free: legal.
func Rescale(m map[string]float64, factor float64) float64 {
	total := 1.0
	for range m {
		total = total * factor
	}
	return total
}

// The read-modify-write half answers to maporder's own directive, and a
// full-suite run counts the directive as used.
func AllowedViaHelper(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		//psbox:allow-maporder tolerance-checked aggregate, compared with an epsilon
		sum = b.Add(sum, v)
	}
	return sum
}

// A helper's own clock read is a host value, not a loop-derived one:
// legal here (walltaint polices where host values land).
func ViaClock(m map[string]float64, t0 time.Time) float64 {
	sum := 0.0
	for range m {
		sum = sum + b.Elapsed(t0)
	}
	return sum
}
