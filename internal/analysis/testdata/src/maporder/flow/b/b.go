// Package b holds cross-package helpers for the maporder flow fixtures.
package b

import "time"

// Add is a float accumulator step hidden behind a call.
func Add(a, c float64) float64 {
	return a + c
}

// Fresh ignores its inputs; the result carries no flow.
func Fresh(a, c float64) float64 {
	return 0
}

// Elapsed reads the wall clock: its result carries walltaint's
// wall-clock kind in the program's flow summaries.
func Elapsed(t0 time.Time) float64 {
	return time.Since(t0).Seconds()
}
