// Package model implements model-based power metering, the classic
// alternative to direct measurement that §2.2 examines: a linear model
// regressed from software-visible activity signals (per-core utilization,
// operating point) onto measured rail power — in the spirit of
// self-constructive modeling systems (refs [26], [82], [94]).
//
// The package exists to demonstrate §2.2's two claims: a well-fitted model
// can track the rail closely on its training distribution, yet (i) it
// degrades on operating conditions absent from training, and (ii) however
// accurate, its output is *system* power — the entanglement of §2.3 is
// untouched, which is why psbox insulates at the resource-multiplexing
// level instead.
package model

import (
	"fmt"
	"math"
)

// Sample is one training/evaluation observation: feature vector plus the
// measured watts.
type Sample struct {
	Features []float64
	Watts    float64
}

// Linear is a fitted linear power model: watts = Intercept + Coef·x.
type Linear struct {
	Names     []string
	Coef      []float64
	Intercept float64
}

// Fit performs ordinary least squares via the normal equations with
// Gaussian elimination (partial pivoting). It needs at least one more
// sample than features.
func Fit(names []string, data []Sample) (*Linear, error) {
	k := len(names)
	if k == 0 {
		return nil, fmt.Errorf("model: need at least one feature")
	}
	if len(data) <= k {
		return nil, fmt.Errorf("model: %d samples cannot fit %d features", len(data), k)
	}
	for i, s := range data {
		if len(s.Features) != k {
			return nil, fmt.Errorf("model: sample %d has %d features, want %d", i, len(s.Features), k)
		}
	}
	// Design matrix with a leading intercept column: solve (XᵀX)β = Xᵀy.
	n := k + 1
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n+1) // augmented with Xᵀy
	}
	for _, s := range data {
		row := make([]float64, n)
		row[0] = 1
		copy(row[1:], s.Features)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ata[i][j] += float64(row[i] * row[j])
			}
			ata[i][n] += float64(row[i] * s.Watts)
		}
	}
	beta, err := solve(ata)
	if err != nil {
		return nil, err
	}
	m := &Linear{Names: append([]string(nil), names...), Intercept: beta[0]}
	m.Coef = append(m.Coef, beta[1:]...)
	return m, nil
}

// solve performs Gaussian elimination with partial pivoting on an
// augmented matrix.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		best := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[best][col]) {
				best = r
			}
		}
		if math.Abs(a[best][col]) < 1e-12 {
			return nil, fmt.Errorf("model: singular design matrix (collinear or constant feature)")
		}
		a[col], a[best] = a[best], a[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
		}
	}
	// Back-substitute.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := a[r][n]
		for c := r + 1; c < n; c++ {
			sum -= float64(a[r][c] * x[c])
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// Predict evaluates the model on one feature vector.
func (m *Linear) Predict(features []float64) float64 {
	if len(features) != len(m.Coef) {
		panic(fmt.Sprintf("model: predict with %d features, want %d", len(features), len(m.Coef)))
	}
	w := m.Intercept
	for i, f := range features {
		w += float64(m.Coef[i] * f)
	}
	return w
}

// MAE reports the mean absolute error over a data set.
func (m *Linear) MAE(data []Sample) float64 {
	if len(data) == 0 {
		return 0
	}
	var sum float64
	for _, s := range data {
		sum += math.Abs(m.Predict(s.Features) - s.Watts)
	}
	return sum / float64(len(data))
}

// MAPE reports the mean absolute percentage error over a data set.
func (m *Linear) MAPE(data []Sample) float64 {
	n := 0
	var sum float64
	for _, s := range data {
		if s.Watts <= 0 {
			continue
		}
		sum += math.Abs(m.Predict(s.Features)-s.Watts) / s.Watts
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}

// R2 reports the coefficient of determination over a data set.
func (m *Linear) R2(data []Sample) float64 {
	if len(data) == 0 {
		return 0
	}
	var mean float64
	for _, s := range data {
		mean += s.Watts
	}
	mean /= float64(len(data))
	var ssRes, ssTot float64
	for _, s := range data {
		d := s.Watts - m.Predict(s.Features)
		ssRes += float64(d * d)
		ssTot += float64((s.Watts - mean) * (s.Watts - mean))
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

func (m *Linear) String() string {
	s := fmt.Sprintf("P = %.4f", m.Intercept)
	for i, c := range m.Coef {
		s += fmt.Sprintf(" %+.4f·%s", c, m.Names[i])
	}
	return s
}
