package sim

// Rand is a small deterministic pseudo-random source (SplitMix64). The
// standard library's math/rand is avoided so that simulated randomness is
// stable across Go releases and trivially seedable per experiment.
// A Rand is confined to one goroutine: concurrent Next calls would make
// the draw sequence depend on scheduling.
//
//psbox:confined
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniform on [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value uniform on [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value uniform on [0, 1).
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Jitter returns base scaled by a factor uniform on [1−frac, 1+frac].
// It is the standard way workloads add run-to-run variation.
func (r *Rand) Jitter(base int64, frac float64) int64 {
	if frac <= 0 {
		return base
	}
	f := 1 + float64(frac*(float64(2*r.Float64())-1))
	v := int64(float64(base) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// JitterDur is Jitter for durations.
func (r *Rand) JitterDur(base Duration, frac float64) Duration {
	return Duration(r.Jitter(int64(base), frac))
}

// Norm returns an approximately normal deviate with the given mean and
// standard deviation (Irwin–Hall sum of 12 uniforms).
func (r *Rand) Norm(mean, stddev float64) float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return mean + float64(stddev*(s-6))
}

// Fork derives an independent generator. Streams of a generator and its
// fork do not interleave, which keeps workload randomness stable when new
// consumers are added.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64() ^ 0xd1b54a32d192ed03)
}
