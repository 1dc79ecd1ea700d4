// Package dtw implements dynamic time warping, the time-series similarity
// measure the paper's §2.5 attacker uses to match observed GPU power
// traces against its training set (ref [2]).
package dtw

import (
	"math"
)

// Distance computes the DTW distance between two series with a
// Sakoe-Chiba band of the given half-width. A non-positive window means
// unconstrained. Empty inputs yield +Inf.
func Distance(a, b []float64, window int) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return math.Inf(1)
	}
	if window <= 0 {
		window = max(n, m)
	}
	// The band must be at least |n−m| wide to admit any path.
	if d := n - m; d < 0 {
		if window < -d {
			window = -d
		}
	} else if window < d {
		window = d
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo := i - window
		if lo < 1 {
			lo = 1
		}
		hi := i + window
		if hi > m {
			hi = m
		}
		for j := lo; j <= hi; j++ {
			d := a[i-1] - b[j-1]
			cost := float64(d * d)
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	return math.Sqrt(prev[m])
}

// Normalize z-scores a series in place-copy: zero mean, unit variance.
// Constant series normalize to all zeros.
func Normalize(s []float64) []float64 {
	out := make([]float64, len(s))
	if len(s) == 0 {
		return out
	}
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	var variance float64
	for _, v := range s {
		variance += float64((v - mean) * (v - mean))
	}
	variance /= float64(len(s))
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		return out
	}
	for i, v := range s {
		out[i] = (v - mean) / sd
	}
	return out
}

// Classify returns the index of the training series nearest to the probe
// under normalized DTW, and the winning distance.
func Classify(probe []float64, training [][]float64, window int) (int, float64) {
	p := Normalize(probe)
	best, bestD := -1, math.Inf(1)
	for i, tr := range training {
		d := Distance(p, Normalize(tr), window)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
