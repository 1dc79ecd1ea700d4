package fleet

import (
	"fmt"

	"psbox/internal/sim"
	"psbox/internal/snapshot"
	"psbox/internal/soak"
)

// attemptResult is everything one attempt hands back to its supervisor.
// Exactly one of report/failure is set. ckpt is the newest checkpoint the
// attempt took (nil if none) — the supervisor adopts it so later retries
// resume from the furthest validated point, even when this attempt
// ultimately failed.
type attemptResult struct {
	report      *ShardReport
	failure     *Failure
	ckpt        *soak.Checkpoint
	resumedFrom sim.Time // checkpoint instant a successful resume verified at; 0 = ran from zero
}

// shardState is one shard's supervision state. It is owned by the worker
// goroutine driving the shard; attempt goroutines receive immutable
// arguments (the resume record) and report back only through their result.
type shardState struct {
	cfg   Config
	shard int
	seed  uint64
	last  *soak.Checkpoint // newest validated (or chaos-corrupted) checkpoint
}

// validatedResume picks the attempt's resume point. A stored checkpoint
// that fails PSBX framing/CRC validation produces a typed
// checkpoint-corrupt failure (consuming this attempt) and is discarded, so
// the next attempt restarts from zero — corruption degrades the resume, it
// never crashes the fleet or silently resumes from garbage.
func (st *shardState) validatedResume(attempt int) (*soak.Checkpoint, *Failure) {
	if st.last == nil {
		return nil, nil
	}
	if _, err := snapshot.Parse(st.last.Bytes); err != nil {
		f := &Failure{
			Shard:   st.shard,
			Attempt: attempt,
			Kind:    FailCheckpointCorrupt,
			At:      st.last.At,
			Msg:     fmt.Sprintf("stored checkpoint rejected (%v); discarding it, next attempt restarts from zero", err),
		}
		st.last = nil
		return nil, f
	}
	return st.last, nil
}

// runAttempt executes one attempt of the shard: rebuild the scenario, arm
// the checkpoint cadence (soak.Arm), step the horizon in quanta (reporting
// sim-time progress after each), and summarize the final state. A resume
// is soak.Arm's replay-twin path: replay to the checkpoint instant,
// byte-verify the rebuilt state against the checkpoint, continue. Any
// panic — a chaos kill, an invariant violation, a model bug — is
// recovered into a typed failure; the process never crashes.
func (st *shardState) runAttempt(attempt int, resume *soak.Checkpoint, ctl *shardCtl) (res attemptResult) {
	var tape *soak.Tape
	defer func() {
		if r := recover(); r != nil {
			res = attemptResult{
				failure: &Failure{
					Shard:   st.shard,
					Attempt: attempt,
					Kind:    FailPanic,
					At:      sim.Time(ctl.heartbeat.Load()),
					Msg:     fmt.Sprint(r),
				},
			}
			if tape != nil {
				res.ckpt = tape.Latest
			}
		}
	}()

	inj := st.cfg.Chaos.injectionFor(st.shard, attempt)
	sys := st.cfg.Build(st.shard, st.seed, st.cfg.Horizon)
	quantum := st.cfg.Horizon / sim.Duration(st.cfg.Quanta)
	tape = soak.Arm(sys, quantum*sim.Duration(st.cfg.CheckpointEvery), quantum*sim.Duration(st.cfg.Quanta), resume)

	for q := 1; q <= st.cfg.Quanta; q++ {
		if inj != nil && inj.Quantum == q {
			switch inj.Kind {
			case FailPanic:
				panic(fmt.Sprintf("chaos: shard %d attempt %d killed before quantum %d/%d",
					st.shard, attempt, q, st.cfg.Quanta))
			case FailHang:
				// Cooperative chaos hang: stall (no heartbeat progress)
				// until the watchdog cancels us. The supervisor synthesizes
				// the hang failure; whatever we return is superseded, but
				// the checkpoints we took before stalling ride along.
				//psbox:allow-noconcurrency chaos hang blocks on the supervisor's cancel channel until the watchdog fires
				<-ctl.cancel
				return attemptResult{
					failure: &Failure{Shard: st.shard, Attempt: attempt, Kind: FailHang,
						At: sim.Time(ctl.heartbeat.Load()), Msg: "chaos hang cancelled"},
					ckpt: tape.Latest,
				}
			}
		}
		//psbox:allow-noconcurrency non-blocking cancellation check between quanta; the default arm keeps the attempt single-threaded and running
		select {
		//psbox:allow-noconcurrency cooperative cancellation: the watchdog closed the channel, so stop at this quantum boundary
		case <-ctl.cancel:
			return attemptResult{
				failure: &Failure{Shard: st.shard, Attempt: attempt, Kind: FailHang,
					At: sim.Time(ctl.heartbeat.Load()), Msg: "cancelled by watchdog"},
				ckpt: tape.Latest,
			}
		default:
		}
		sys.Run(quantum)
		ctl.heartbeat.Store(int64(sys.Now()))
		if tape.Err != nil {
			return attemptResult{
				failure: &Failure{Shard: st.shard, Attempt: attempt, Kind: FailCheckpointCorrupt,
					At: resume.At, Msg: fmt.Sprintf("resume verification failed: %v; discarding checkpoint", tape.Err)},
				ckpt: nil,
			}
		}
	}
	// Integer division can leave a sub-quantum remainder before the
	// horizon; run it so every attempt ends at exactly Horizon.
	if rem := st.cfg.Horizon - quantum*sim.Duration(st.cfg.Quanta); rem > 0 {
		sys.Run(rem)
		ctl.heartbeat.Store(int64(sys.Now()))
	}
	if resume != nil && !tape.Restored {
		return attemptResult{
			failure: &Failure{Shard: st.shard, Attempt: attempt, Kind: FailCheckpointCorrupt,
				At: resume.At, Msg: "resume never reached the checkpoint instant (cadence mismatch); discarding checkpoint"},
			ckpt: nil,
		}
	}
	res = attemptResult{report: Summarize(sys), ckpt: tape.Latest}
	if resume != nil {
		res.resumedFrom = resume.At
	}
	return res
}
