// Package soak owns psbox's crash-and-resume protocol (DESIGN.md §7):
// the checkpoint scheduling discipline every run of a scenario shares
// (Arm), and the harness that kills a run at 25/50/75% of its horizon,
// restores it from the last checkpoint by replay-twin verification
// (rebuild, replay to the checkpoint instant, byte-verify) and
// byte-compares its final report against the uninterrupted run's
// (Protocol). psbox-soak, psbox-flood -soak and the fleet supervisor's
// shard retries all run on it.
package soak

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
	"psbox/internal/snapshot"
)

// Checkpoint is one saved PSBX checkpoint: the canonical bytes and the
// sim instant they were taken at.
type Checkpoint struct {
	At    sim.Time
	Bytes []byte
}

// Tape is what one run's armed checkpoint events did.
type Tape struct {
	// Latest is the newest checkpoint the run saved; nil before the first.
	Latest *Checkpoint

	// Restored reports that the run reached the resume instant and
	// verified the resume checkpoint there; Err is the verification's
	// outcome.
	Restored bool
	Err      error
}

// Arm schedules one checkpoint event at every multiple of every up to
// until. Call it after the scenario is built and before any Run: every
// run of a scenario — golden, crashed, resumed, replica, retry — arms the
// same events at the same absolute instants, so all of them consume
// identical engine sequence numbers and only the callback's branch
// differs. Each event puts its instant on the trace in every run.
//
// With a resume checkpoint, the event at resume.At verifies resume.Bytes
// against the rebuilt, replayed system. The verification runs inside the
// event rather than after a partial Run, whose end-of-run invariant sweep
// would advance the checker's cursors past a mid-run capture. Every later
// event saves the newest checkpoint; without a resume, every event saves.
// A resume instant off the cadence is never reached and leaves Restored
// false.
//
// Arm panics on a non-positive cadence, on which its loop would never
// pass until; only a caller's bug produces one.
func Arm(sys *psbox.System, every, until sim.Duration, resume *Checkpoint) *Tape {
	if every <= 0 {
		panic(fmt.Sprintf("soak: checkpoint cadence must be positive, have %v", every))
	}
	tape := &Tape{}
	for t := sim.Time(every); t <= sim.Time(until); t = t.Add(every) {
		at := t
		sys.Eng.At(at, func(sim.Time) {
			sys.Trace.Instant(obs.CatCkpt, "checkpoint", 0, int64(at), "", "")
			switch {
			case resume != nil && at == resume.At:
				tape.Err = sys.Restore(resume.Bytes)
				tape.Restored = true
			case resume == nil || at > resume.At:
				tape.Latest = &Checkpoint{At: at, Bytes: sys.Snapshot()}
			}
		})
	}
	return tape
}

// Exit codes of a protocol verdict. A restore failure outranks
// divergence: a checkpoint that does not verify makes the comparison
// divergence is judged by meaningless.
const (
	ExitOK         = 0
	ExitDivergence = 1
	ExitRestore    = 2
)

// Result is what the protocol found.
type Result struct {
	// RestoreFailed: a checkpoint was missing or unreadable, or failed
	// verification at its instant.
	RestoreFailed bool
	// Diverged: a resumed report or a lockstep replica deviated from the
	// uninterrupted run.
	Diverged bool

	mid *Checkpoint // the 50% kill's checkpoint, which Lockstep resumes from
}

// Code is the exit status for the findings.
func (r Result) Code() int {
	switch {
	case r.RestoreFailed:
		return ExitRestore
	case r.Diverged:
		return ExitDivergence
	}
	return ExitOK
}

// String is the transcript's verdict word: "ok" or "FAIL".
func (r Result) String() string {
	if r.Code() == ExitOK {
		return "ok"
	}
	return "FAIL"
}

// Protocol is one scenario under the crash-and-resume protocol.
// Checkpoints fall every Horizon/10.
type Protocol struct {
	// Build constructs the scenario, identically on every call. Run calls
	// it for the golden run and then, per kill point, for the crashed run
	// and the resumed run; Lockstep calls it once per replica.
	Build func() *psbox.System

	// Report renders a finished run's final state; runs are compared by
	// it byte for byte.
	Report func(*psbox.System) string

	Horizon sim.Duration
}

func (p Protocol) arm(sys *psbox.System, resume *Checkpoint) *Tape {
	return Arm(sys, p.Horizon/10, p.Horizon, resume)
}

// Run executes the protocol and writes its transcript to w: the golden
// run's report, then per kill point the checkpoint's file round trip, the
// restore verdict, and the resumed report's comparison with the golden
// one. The transcript is deterministic for a deterministic scenario.
func (p Protocol) Run(w io.Writer) Result {
	golden := p.Build()
	p.arm(golden, nil)
	golden.Run(p.Horizon)
	want := p.Report(golden)
	fmt.Fprintf(w, "== golden ==\n%s", want)

	var r Result
	dir, err := os.MkdirTemp("", "psbox-soak-")
	if err != nil {
		fmt.Fprintf(w, "FAIL: checkpoint scratch dir: %v\n", err)
		r.RestoreFailed = true
		return r
	}
	defer os.RemoveAll(dir)

	for _, pct := range []int{25, 50, 75} {
		fmt.Fprintf(w, "\n== crash at %d%% ==\n", pct)
		ckpt, err := p.crash(p.Horizon*sim.Duration(pct)/100, filepath.Join(dir, fmt.Sprintf("ckpt-%d.psbx", pct)))
		if err != nil {
			fmt.Fprintln(w, "FAIL:", err)
			r.RestoreFailed = true
			continue
		}
		fmt.Fprintf(w, "checkpoint at %d ms (%d bytes, crc ok)\n",
			int64(ckpt.At)/int64(sim.Millisecond), len(ckpt.Bytes))

		resumed := p.Build()
		tape := p.arm(resumed, ckpt)
		resumed.Run(p.Horizon)
		switch {
		case !tape.Restored:
			fmt.Fprintln(w, "FAIL: resume never reached the checkpoint instant")
			r.RestoreFailed = true
		case tape.Err != nil:
			fmt.Fprintf(w, "FAIL: restore verification: %v\n", tape.Err)
			r.RestoreFailed = true
		default:
			fmt.Fprintln(w, "restore verified")
		}
		if got := p.Report(resumed); got != want {
			fmt.Fprintf(w, "FAIL: resumed report diverges from golden:\n%s", DiffLines(want, got))
			r.Diverged = true
		} else {
			fmt.Fprintln(w, "resumed report identical to golden")
		}
		if pct == 50 {
			r.mid = ckpt
		}
	}
	return r
}

// crash runs a fresh build up to the kill instant and returns the newest
// checkpoint it left, round-tripped through the file at path to exercise
// the CRC-validated persistence path.
func (p Protocol) crash(at sim.Duration, path string) (*Checkpoint, error) {
	sys := p.Build()
	tape := p.arm(sys, nil)
	sys.Run(at)
	if tape.Latest == nil {
		return nil, errors.New("no checkpoint before the crash point")
	}
	if err := snapshot.WriteFile(path, tape.Latest.Bytes); err != nil {
		return nil, fmt.Errorf("write checkpoint: %w", err)
	}
	data, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read checkpoint: %w", err)
	}
	return &Checkpoint{At: tape.Latest.At, Bytes: data}, nil
}

// Lockstep resumes two replicas from the checkpoint Run's 50% kill left
// and steps them to the horizon in Horizon/50 quanta, comparing full
// system snapshots after every step: the detector for nondeterminism a
// final-report comparison could smear over. It writes its transcript
// section and records a failed restore, or the first divergence with its
// section-qualified diff, in r. Without that checkpoint it does nothing:
// Run has already failed the kill point.
func (p Protocol) Lockstep(w io.Writer, r *Result) {
	if r.mid == nil {
		return
	}
	fmt.Fprintln(w, "\n== lockstep replicas ==")
	var replicas [2]*psbox.System
	for i := range replicas {
		sys := p.Build()
		tape := p.arm(sys, r.mid)
		sys.Run(sim.Duration(r.mid.At))
		if tape.Err != nil {
			fmt.Fprintf(w, "FAIL: lockstep replica %d restore: %v\n", i, tape.Err)
			r.RestoreFailed = true
			return
		}
		replicas[i] = sys
	}
	quantum := p.Horizon / 50
	steps := 0
	for replicas[0].Now() < sim.Time(p.Horizon) {
		for _, sys := range replicas {
			sys.Run(quantum)
		}
		steps++
		if d := snapshot.Diff(replicas[0].Snapshot(), replicas[1].Snapshot()); d != "" {
			fmt.Fprintf(w, "FAIL: replicas diverged at %v (step %d): %s\n", replicas[0].Now(), steps, d)
			r.Diverged = true
			return
		}
	}
	fmt.Fprintf(w, "two replicas resumed at %d ms, stepped %d quanta to the horizon: no divergence\n",
		int64(r.mid.At)/int64(sim.Millisecond), steps)
}

// DiffLines renders every differing line of two reports, numbered from 1.
func DiffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			fmt.Fprintf(&b, "  line %d:\n  - %s\n  + %s\n", i+1, lw, lg)
		}
	}
	return b.String()
}
