//psbox:allow-nowallclock hung-shard watchdog deadlines and retry backoff are host-side supervision; no wall-clock value flows into simulated state or the merged report

// Package fleet is the fault-tolerant fleet supervisor: it runs N
// independently-seeded device simulations (shards) across a worker pool
// and makes the fleet robust to shard failure (DESIGN.md §"Fleet
// supervision").
//
// Each shard's *psbox.System stays single-threaded — the noconcurrency
// contract holds inside a shard — while the supervisor provides, around
// it:
//
//   - panic isolation: a recovered panic becomes a typed Failure, never a
//     process crash;
//   - a hung-shard watchdog: shards heartbeat their sim-time progress
//     after every quantum, and a shard that stalls past StallTimeout of
//     wall time is cancelled (cooperatively when it is blocked on the
//     cancel channel, by abandonment when it is wedged inside the event
//     loop);
//   - retry with capped exponential backoff that resumes from the shard's
//     last PSBX checkpoint — the replay-twin path of soak.Arm: rebuild the
//     scenario, replay, byte-verify at the checkpoint instant — instead of
//     restarting from zero;
//   - graceful degradation: a shard that exhausts its retries is
//     quarantined, and the merged fleet report stays deterministic
//     regardless of completion order, worker count, or which retry attempt
//     succeeded, with quarantined shards listed and their absence
//     explicitly accounted as a coverage fraction (never silently
//     renormalized).
//
// A seeded chaos plan (Plan) injects shard kills, hangs, and checkpoint
// corruption deterministically, so the whole supervision path is itself
// reproducible and golden-testable.
package fleet

import (
	"fmt"
	"runtime"
	//psbox:allow-noconcurrency worker-pool WaitGroup and the Progress mutex; shard Systems never cross the pool boundary (goroutineconfine proves it)
	"sync"
	//psbox:allow-noconcurrency watchdog heartbeat is a typed atomic written by the attempt goroutine and polled by its supervisor
	"sync/atomic"
	"time"

	"psbox"
	"psbox/internal/sim"
	"psbox/internal/soak"
)

// FailureKind classifies one shard failure (the taxonomy of DESIGN.md
// §"Fleet supervision").
type FailureKind string

const (
	// FailPanic is a recovered panic inside the shard's attempt: an
	// invariant violation, a model bug, or an injected chaos kill.
	FailPanic FailureKind = "panic"

	// FailHang is a watchdog cancellation: the shard made no sim-time
	// progress for StallTimeout of wall time.
	FailHang FailureKind = "hang"

	// FailCheckpointCorrupt covers both a checkpoint that fails CRC/framing
	// validation before a resume and a resume whose replay-twin
	// verification diverges from the checkpoint bytes. Either way the
	// checkpoint is discarded and the next attempt restarts from zero.
	FailCheckpointCorrupt FailureKind = "checkpoint-corrupt"
)

// Failure is one typed shard failure, recorded at the sim-time progress
// point the shard had deterministically reached.
type Failure struct {
	Shard   int
	Attempt int
	Kind    FailureKind
	At      sim.Time // sim-time progress when the attempt failed
	Msg     string
}

// String renders the failure in the stable one-line form the merged
// report uses.
func (f Failure) String() string {
	return fmt.Sprintf("shard %d attempt %d %s at %v: %s", f.Shard, f.Attempt, f.Kind, f.At, f.Msg)
}

// Builder constructs one shard's scenario: a fully-wired System ready to
// Run. It must be a pure function of (shard, seed, horizon) — every
// attempt of a shard rebuilds through it, and the replay-twin resume
// contract requires identical event sequences across attempts. It must
// also enable profiling, as DefaultScenario does: the shard report's
// blame is its energy profile summed by principal.
type Builder func(shard int, seed uint64, horizon sim.Duration) *psbox.System

// Config parameterizes one fleet run.
type Config struct {
	Shards  int          // number of device simulations
	Workers int          // worker goroutines; <=0 means NumCPU
	Horizon sim.Duration // per-shard simulated horizon
	Seed    uint64       // fleet seed; shard i runs with ShardSeed(Seed, i)

	// Quanta is how many sim-time steps a shard's horizon is cut into: the
	// heartbeat (and chaos-injection) granularity. Default 20.
	Quanta int

	// CheckpointEvery takes a PSBX checkpoint every this many quanta.
	// Default 5.
	CheckpointEvery int

	// MaxRetries bounds retries after the first attempt; 0 disables
	// retry, so any failure quarantines the shard immediately.
	MaxRetries int

	// BackoffBase is the host-side delay before the first retry of a
	// shard; it doubles per retry, capped at BackoffCap. Defaults
	// 10ms/500ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// StallTimeout is the hung-shard watchdog deadline: wall time without
	// sim-time progress before the attempt is cancelled. Default 30s. The
	// watchdog checks every StallTimeout/10, but at least 1 ms apart.
	StallTimeout time.Duration

	// Build constructs shard scenarios; nil means DefaultScenario.
	Build Builder

	// Chaos, when non-nil, injects the plan's deterministic shard kills,
	// hangs, and checkpoint corruption.
	Chaos *Plan

	// Progress, when non-nil, is called after each shard reaches its
	// terminal outcome with the counts so far. Calls are serialized but
	// arrive in completion order — host-timing territory — so Progress is
	// for wall-clock reporting (progress bars, ETAs) only and must never
	// feed anything back into the run.
	Progress func(done, quarantined, total int)
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Quanta <= 0 {
		cfg.Quanta = 20
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 5
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = 500 * time.Millisecond
		if cfg.BackoffCap < cfg.BackoffBase {
			cfg.BackoffCap = cfg.BackoffBase
		}
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	if cfg.Build == nil {
		cfg.Build = DefaultScenario
	}
	return cfg
}

func (cfg Config) validate() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("fleet: need at least one shard, have %d", cfg.Shards)
	}
	if cfg.Horizon <= 0 {
		return fmt.Errorf("fleet: horizon must be positive, have %v", cfg.Horizon)
	}
	if cfg.Quanta < 2 {
		return fmt.Errorf("fleet: need at least 2 quanta, have %d", cfg.Quanta)
	}
	if cfg.Horizon < sim.Duration(cfg.Quanta) {
		return fmt.Errorf("fleet: horizon %v is too short for %d quanta: each would last 0 ns", cfg.Horizon, cfg.Quanta)
	}
	if cfg.CheckpointEvery > cfg.Quanta {
		return fmt.Errorf("fleet: CheckpointEvery %d exceeds Quanta %d: shards would never checkpoint", cfg.CheckpointEvery, cfg.Quanta)
	}
	return nil
}

// ShardSeed derives shard i's simulation seed from the fleet seed: the
// (i+1)-th draw of sim.NewRand(fleet), so neighbouring shards get
// uncorrelated streams.
func ShardSeed(fleet uint64, shard int) uint64 {
	r := sim.NewRand(fleet)
	for i := 0; i < shard; i++ {
		r.Uint64()
	}
	return r.Uint64()
}

// ShardOutcome is one shard's terminal state: either a report (possibly
// after overcoming failures) or quarantine.
type ShardOutcome struct {
	Shard       int
	Seed        uint64
	Attempts    int
	Quarantined bool
	Failures    []Failure

	// ResumedFrom is the checkpoint instant the successful attempt
	// resumed from (0 when it ran from scratch). Meaningless when
	// quarantined.
	ResumedFrom sim.Time

	// Report holds the shard's deterministic summary; nil when
	// quarantined.
	Report *ShardReport
}

// Result is the whole fleet's outcome, ready for deterministic merging.
type Result struct {
	Cfg    Config
	Shards []ShardOutcome // indexed by shard ID
}

// Run executes the fleet: shards are dealt to Workers goroutines, each
// shard supervised through panic isolation, the hung-shard watchdog, and
// retry-with-resume. The returned Result is a pure function of the
// config's deterministic fields (seed, shards, horizon, quanta, retries,
// chaos plan) — never of Workers, completion order, or host timing.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{Cfg: cfg, Shards: make([]ShardOutcome, cfg.Shards)}
	//psbox:allow-noconcurrency shard IDs are dealt to the worker pool over this channel; the shard work itself stays single-threaded
	jobs := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	done, quarantined := 0, 0
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		//psbox:allow-noconcurrency one worker goroutine per pool slot; each builds its shards' Systems inside runShard, sharing nothing but the jobs channel
		go func() {
			defer wg.Done()
			//psbox:allow-noconcurrency draining the job channel is how a worker claims shards; it closes when all IDs are dealt
			for shard := range jobs {
				// Each worker writes only its own shard's slot.
				res.Shards[shard] = runShard(cfg, shard)
				if cfg.Progress != nil {
					progressMu.Lock()
					done++
					if res.Shards[shard].Quarantined {
						quarantined++
					}
					cfg.Progress(done, quarantined, cfg.Shards)
					progressMu.Unlock()
				}
			}
		}()
	}
	for shard := 0; shard < cfg.Shards; shard++ {
		//psbox:allow-noconcurrency dealing plain shard IDs, not simulator state; ownership of anything confined never moves here
		jobs <- shard
	}
	close(jobs)
	wg.Wait()
	return res, nil
}

// cancelGrace is how long a cancelled attempt gets to acknowledge the
// cancellation before it is abandoned (its goroutine leaked, its results
// discarded).
const cancelGrace = 5 * time.Second

// shardCtl is the supervision channel between a worker and the attempt
// goroutine it watches.
type shardCtl struct {
	cancel    chan struct{} // closed by the watchdog to cancel the attempt
	heartbeat atomic.Int64  // sim-time (ns) of the last completed quantum
}

// superviseAttempt runs one attempt under the hung-shard watchdog. The
// attempt executes in its own goroutine; the worker polls its sim-time
// heartbeat and, once it stalls past StallTimeout, closes the cancel
// channel, waits cancelGrace for the attempt to acknowledge, and otherwise
// abandons the goroutine (its System is private, so nothing it still
// touches is shared). The synthesized hang failure records the sim-time
// progress point — a quantum boundary, deterministic for a fixed chaos
// plan — never any wall-clock value.
func superviseAttempt(cfg Config, st *shardState, attempt int, resume *soak.Checkpoint) attemptResult {
	//psbox:allow-noconcurrency the cancel channel is the watchdog's only signal into the attempt; closing it is the cooperative cancellation protocol
	ctl := &shardCtl{cancel: make(chan struct{})}
	//psbox:allow-noconcurrency buffered size 1 so an abandoned attempt's final send never blocks its goroutine forever
	done := make(chan attemptResult, 1)
	//psbox:allow-noconcurrency the attempt goroutine builds and owns its own System; only the attemptResult crosses back, via the done channel
	go func() { done <- st.runAttempt(attempt, resume, ctl) }()

	poll := max(cfg.StallTimeout/10, time.Millisecond)
	lastHB := ctl.heartbeat.Load()
	lastProgress := time.Now()
	for {
		//psbox:allow-noconcurrency watchdog poll loop: wait on the attempt result or the next heartbeat check, whichever is ready first
		select {
		//psbox:allow-noconcurrency receiving the attempt's result transfers it (and any checkpoint) back to the supervising worker
		case r := <-done:
			return r
		//psbox:allow-noconcurrency host-side poll tick; the watchdog deadline is supervision, not simulated time
		case <-time.After(poll):
			hb := ctl.heartbeat.Load()
			if hb >= int64(cfg.Horizon) {
				// The sim clock has reached the horizon: there is no more
				// sim-time progress to watch for, only the deterministic
				// summarize step. Cancelling now would fabricate a hang out
				// of a slow host (e.g. under the race detector), so stop
				// watching and wait the attempt out.
				//psbox:allow-noconcurrency horizon reached: block for the attempt's deterministic summarize step
				return <-done
			}
			if hb != lastHB {
				lastHB, lastProgress = hb, time.Now()
				continue
			}
			if time.Since(lastProgress) < cfg.StallTimeout {
				continue
			}
			close(ctl.cancel)
			hung := attemptResult{failure: &Failure{
				Shard:   st.shard,
				Attempt: attempt,
				Kind:    FailHang,
				At:      sim.Time(lastHB),
				Msg:     fmt.Sprintf("no sim-time progress past %v; shard cancelled", sim.Time(lastHB)),
			}}
			//psbox:allow-noconcurrency post-cancel race: the attempt either acknowledges within cancelGrace or is abandoned
			select {
			//psbox:allow-noconcurrency acknowledgment path: adopt the cancelled attempt's checkpoint for the retry
			case r := <-done:
				// The attempt acknowledged the cancel: keep any checkpoint
				// it took before stalling so the retry resumes, not
				// restarts. The hang failure still supersedes its result.
				hung.ckpt = r.ckpt
			//psbox:allow-noconcurrency grace deadline for a wedged attempt; after it the goroutine is abandoned
			case <-time.After(cancelGrace):
				// Wedged inside the event loop: abandon the goroutine. Its
				// eventual send lands in the buffered channel and is never
				// read, so none of its state is observed.
			}
			return hung
		}
	}
}

// runShard drives one shard to a terminal outcome: attempts run under
// supervision, failures accumulate, retries back off on sim.Backoff (the
// accel watchdog's and netsched retransmission's capped doubling, in host
// time) and resume from the last validated checkpoint, and a shard that
// exhausts MaxRetries is quarantined.
func runShard(cfg Config, shard int) ShardOutcome {
	st := &shardState{cfg: cfg, shard: shard, seed: ShardSeed(cfg.Seed, shard)}
	out := ShardOutcome{Shard: shard, Seed: st.seed}
	for attempt := 0; ; attempt++ {
		out.Attempts = attempt + 1

		// The resume-not-restart rule: a retry resumes from the last
		// checkpoint when one exists and validates; a checkpoint that
		// fails CRC/framing is this attempt's typed failure, and the
		// checkpoint is discarded so the next attempt restarts from zero.
		resume, failure := st.validatedResume(attempt)
		var res attemptResult
		if failure != nil {
			res = attemptResult{failure: failure}
		} else {
			res = superviseAttempt(cfg, st, attempt, resume)
		}
		if res.ckpt != nil && (st.last == nil || res.ckpt.At > st.last.At) {
			st.last = res.ckpt
		}
		if res.failure == nil {
			out.Report = res.report
			out.ResumedFrom = res.resumedFrom
			return out
		}
		out.Failures = append(out.Failures, *res.failure)
		if res.failure.Kind == FailCheckpointCorrupt {
			// Both corruption flavours — bad CRC before the attempt, replay
			// divergence during it — discard the checkpoint: the next
			// attempt restarts from zero rather than resuming from state
			// that cannot be trusted.
			st.last = nil
		}
		if inj := cfg.Chaos.injectionFor(shard, attempt); inj != nil && inj.Corrupt && st.last != nil {
			// Chaos checkpoint corruption: replace (never mutate — an
			// abandoned attempt may still hold the old bytes) the stored
			// checkpoint with a bit-flipped copy.
			st.last = &soak.Checkpoint{At: st.last.At, Bytes: corruptCopy(st.last.Bytes)}
		}
		if attempt >= cfg.MaxRetries {
			out.Quarantined = true
			return out
		}
		time.Sleep(time.Duration(sim.Backoff(attempt+1, sim.FromHost(cfg.BackoffBase), sim.FromHost(cfg.BackoffCap))))
	}
}

// corruptCopy returns data with one mid-buffer bit flipped — enough to
// fail the PSBX CRC.
func corruptCopy(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) > 0 {
		out[len(out)/2] ^= 0x40
	}
	return out
}
