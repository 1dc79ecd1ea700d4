// Package sidechannel reproduces the paper's §2.5 attack: a victim browser
// renders one of ten synthetic websites, each with a characteristic GPU
// command train and hence a unique power signature; an attacker app runs a
// light camouflage workload and classifies what it can observe of GPU
// power with DTW against training traces of the victim running alone.
//
// Two observation regimes are compared:
//
//   - ObserveUnrestricted — the state of the art (§2): power readings are
//     an unprotected system service (a /sys current sensor), so the
//     attacker sees the shared GPU rail with the victim's activity
//     entangled into it;
//   - ObservePSBox — psbox is the only way to observe power: the attacker
//     reads its own sandbox's virtual meter, in which the victim can
//     contribute at most idle power.
package sidechannel

import (
	"fmt"
	"math"

	psbox "psbox"
	"psbox/internal/dtw"
	"psbox/internal/kernel"
	"psbox/internal/sim"
)

// Observation selects what the attacker can read.
type Observation int

const (
	// ObserveUnrestricted reads the raw shared GPU rail.
	ObserveUnrestricted Observation = iota
	// ObservePSBox reads the attacker's own power sandbox.
	ObservePSBox
)

func (o Observation) String() string {
	if o == ObservePSBox {
		return "psbox"
	}
	return "unrestricted"
}

// segment is one burst of a page's rendering pipeline.
type segment struct {
	kind string
	work float64
	dynW float64
	gap  sim.Duration
}

// Site is one synthetic website: a fixed rendering command train.
type Site struct {
	ID       int
	Name     string
	segments []segment
}

// Sites derives n deterministic, mutually distinct websites from a seed.
func Sites(n int, seed uint64) []Site {
	r := sim.NewRand(seed ^ 0xabcdef12345)
	kinds := []struct {
		name string
		dynW float64
	}{
		{"image", 0.62}, {"script", 0.48}, {"layout", 0.41},
		{"video", 0.78}, {"canvas", 0.70},
	}
	sites := make([]Site, n)
	for i := range sites {
		segN := 6 + r.Intn(9)
		s := Site{ID: i, Name: fmt.Sprintf("site%02d", i)}
		for j := 0; j < segN; j++ {
			k := kinds[r.Intn(len(kinds))]
			s.segments = append(s.segments, segment{
				kind: k.name,
				work: float64(800 + r.Intn(9000)),
				dynW: k.dynW,
				gap:  sim.Duration(5+r.Intn(90)) * sim.Millisecond,
			})
		}
		sites[i] = s
	}
	return sites
}

// victimProgram plays one page load (with per-run jitter), then idles.
func victimProgram(site Site) kernel.Program {
	idx := 0
	stage := 0
	return kernel.ProgramFunc(func(env *kernel.Env) kernel.Action {
		if idx >= len(site.segments) {
			return kernel.Sleep{D: 10 * sim.Second}
		}
		seg := site.segments[idx]
		switch stage {
		case 0:
			stage = 1
			return kernel.Compute{Cycles: float64(env.Rand.Jitter(3e5, 0.2))}
		case 1:
			stage = 2
			return kernel.SubmitAccel{Dev: "gpu", Kind: seg.kind,
				Work: float64(env.Rand.Jitter(int64(seg.work), 0.08)), DynW: seg.dynW}
		case 2:
			stage = 3
			return kernel.AwaitAccel{Dev: "gpu", MaxBacklog: 0}
		default:
			stage = 0
			idx++
			return kernel.Sleep{D: env.Rand.JitterDur(seg.gap, 0.15)}
		}
	})
}

// attackerProgram is the light camouflage workload: a tiny GPU command
// every ~30 ms.
func attackerProgram() kernel.Program {
	step := 0
	return kernel.ProgramFunc(func(env *kernel.Env) kernel.Action {
		step++
		switch step % 3 {
		case 1:
			return kernel.SubmitAccel{Dev: "gpu", Kind: "camo",
				Work: 300, DynW: 0.30}
		case 2:
			return kernel.AwaitAccel{Dev: "gpu", MaxBacklog: 0}
		default:
			return kernel.Sleep{D: sim.Duration(env.Rand.Jitter(int64(30*sim.Millisecond), 0.2))}
		}
	})
}

// Config tunes the experiment.
type Config struct {
	Sites   int
	Trials  int // co-run trials per site
	Seed    uint64
	Span    sim.Duration // observation length per trial
	Bucket  sim.Duration // trace bucket width
	Window  int          // DTW band half-width in buckets
	Observe Observation
}

// DefaultConfig mirrors §2.5: Alexa top-10, repeated runs.
func DefaultConfig(obs Observation) Config {
	return Config{
		Sites:   10,
		Trials:  3,
		Seed:    1234,
		Span:    1500 * sim.Millisecond,
		Bucket:  5 * sim.Millisecond,
		Window:  30,
		Observe: obs,
	}
}

// Result summarizes the attack's accuracy.
type Result struct {
	Observe     Observation
	Correct     int
	Total       int
	SuccessRate float64
	RandomGuess float64
	Confusion   [][]int // [actual][predicted]
}

// LeakageBits estimates the empirical mutual information I(site; guess)
// of the confusion matrix, in bits — a channel-capacity-style measure of
// how much the observation leaks about the victim's website. A perfect
// classifier over n sites leaks log2(n) bits; an insulated observation
// leaks ≈0.
func (r Result) LeakageBits() float64 {
	n := len(r.Confusion)
	if n == 0 || r.Total == 0 {
		return 0
	}
	total := float64(r.Total)
	rowSum := make([]float64, n)
	colSum := make([]float64, n)
	for i, row := range r.Confusion {
		for j, v := range row {
			rowSum[i] += float64(v)
			colSum[j] += float64(v)
		}
	}
	var mi float64
	for i, row := range r.Confusion {
		for j, v := range row {
			if v == 0 {
				continue
			}
			pxy := float64(v) / total
			px := rowSum[i] / total
			py := colSum[j] / total
			mi += float64(pxy * math.Log2(pxy/(px*py)))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// MaxLeakageBits is the leakage of a perfect classifier: log2(sites).
func (r Result) MaxLeakageBits() float64 {
	if len(r.Confusion) == 0 {
		return 0
	}
	return math.Log2(float64(len(r.Confusion)))
}

// Run executes the full attack: train on solo victim traces, then attack
// co-running trials.
func Run(cfg Config) Result {
	sites := Sites(cfg.Sites, cfg.Seed)
	buckets := int(cfg.Span / cfg.Bucket)

	// Training: the victim runs alone; the attacker records the GPU rail
	// (training happens in the unrestricted world in both regimes — the
	// attacker trains offline on its own device).
	training := make([][]float64, len(sites))
	for i, site := range sites {
		sys := psbox.NewAM57(cfg.Seed + uint64(i)*977)
		victim := sys.Kernel.NewApp("victim")
		victim.Spawn("render", 0, victimProgram(site))
		sys.Run(cfg.Span)
		training[i] = bucketize(sys, 0, cfg.Span, cfg.Bucket, func(a, b sim.Time) float64 {
			return sys.Meter.Energy("gpu", a, b)
		})
	}

	res := Result{
		Observe:     cfg.Observe,
		RandomGuess: 1 / float64(len(sites)),
		Confusion:   make([][]int, len(sites)),
	}
	for i := range res.Confusion {
		res.Confusion[i] = make([]int, len(sites))
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		for i, site := range sites {
			seed := cfg.Seed + uint64(trial)*131071 + uint64(i)*8191 + 7
			sys := psbox.NewAM57(seed)
			victim := sys.Kernel.NewApp("victim")
			victim.Spawn("render", 0, victimProgram(site))
			attacker := sys.Kernel.NewApp("attacker")
			attacker.Spawn("camo", 1, attackerProgram())

			var probe []float64
			switch cfg.Observe {
			case ObservePSBox:
				box := sys.Sandbox.MustCreate(attacker, psbox.HWGPU)
				box.Enter()
				sys.Run(cfg.Span)
				probe = bucketize(sys, 0, cfg.Span, cfg.Bucket, func(a, b sim.Time) float64 {
					return energyOfSamples(box.SamplesBetween(psbox.HWGPU, a, b), sys.Meter.Period())
				})
			default:
				sys.Run(cfg.Span)
				probe = bucketize(sys, 0, cfg.Span, cfg.Bucket, func(a, b sim.Time) float64 {
					return sys.Meter.Energy("gpu", a, b)
				})
			}
			if len(probe) != buckets {
				panic("sidechannel: bucket mismatch")
			}
			guess, _ := dtw.Classify(probe, training, cfg.Window)
			res.Confusion[i][guess]++
			if guess == i {
				res.Correct++
			}
			res.Total++
		}
	}
	res.SuccessRate = float64(res.Correct) / float64(res.Total)
	return res
}

func bucketize(sys *psbox.System, from, span sim.Duration, bucket sim.Duration,
	energy func(a, b sim.Time) float64) []float64 {
	n := int(span / bucket)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		a := sim.Time(from + sim.Duration(i)*bucket)
		b := a.Add(bucket)
		out[i] = energy(a, b) / bucket.Seconds() // average watts
	}
	return out
}

func energyOfSamples(samples []psbox.Sample, period sim.Duration) float64 {
	var e float64
	for _, s := range samples {
		e += float64(s.W * period.Seconds())
	}
	return e
}
