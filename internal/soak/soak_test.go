package soak

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

const testHorizon = 100 * sim.Millisecond

// battery is a small report: any divergence in the run moves it.
func battery(sys *psbox.System) string {
	return fmt.Sprintf("battery=%.9f J audits=%d\n", sys.Meter.Energy("battery", 0, sys.Now()), sys.Audits())
}

// protocol is the seed-7 scenario under the protocol, with a fault hook:
// builds count from 0 in Run's order (golden, then crashed and resumed
// per kill point), and the builds a non-nil foreign selects get seed 8.
func protocol(foreign func(build int) bool) Protocol {
	n := 0
	return Protocol{
		Build: func() *psbox.System {
			seed := uint64(7)
			if foreign != nil && foreign(n) {
				seed = 8
			}
			n++
			return Scenario(seed, testHorizon)
		},
		Report:  battery,
		Horizon: testHorizon,
	}
}

// TestExitCodes injects each failure class through the protocol's
// closures and checks the transcript and the exit code it folds to.
func TestExitCodes(t *testing.T) {
	crashed := func(n int) bool { return n%2 == 1 }
	resumed := func(n int) bool { return n > 0 && n%2 == 0 }
	tests := []struct {
		name    string
		foreign func(build int) bool
		// changed, when set, reports whether Report's nth call renders a
		// changed report.
		changed func(call int) bool
		want    int
		has     []string
		lacks   []string
	}{
		{
			name:  "ok",
			want:  ExitOK,
			has:   []string{"restore verified", "resumed report identical to golden"},
			lacks: []string{"FAIL"},
		},
		{
			// Every report after the golden one reads differently.
			name: "divergence", changed: func(call int) bool { return call > 0 },
			want:  ExitDivergence,
			has:   []string{"restore verified", "FAIL: resumed report diverges from golden:", "  line 1:\n  - battery="},
			lacks: []string{"FAIL: restore verification"},
		},
		{
			// The checkpoint comes from another seed's run: it does not
			// verify against the true replay, whose report still matches.
			name: "restore failure", foreign: crashed,
			want:  ExitRestore,
			has:   []string{"FAIL: restore verification: ", "resumed report identical to golden"},
			lacks: []string{"report diverges"},
		},
		{
			// A resumed run with another seed fails both ways at once.
			name: "restore failure outranks divergence", foreign: resumed,
			want: ExitRestore,
			has:  []string{"FAIL: restore verification: ", "FAIL: resumed report diverges from golden:"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := protocol(tc.foreign)
			calls := 0
			p.Report = func(sys *psbox.System) string {
				s := battery(sys)
				if tc.changed != nil && tc.changed(calls) {
					s = "changed " + s
				}
				calls++
				return s
			}
			var out bytes.Buffer
			res := p.Run(&out)
			if got := res.Code(); got != tc.want {
				t.Errorf("Code() = %d, want %d\n%s", got, tc.want, out.String())
			}
			if n := strings.Count(out.String(), "== crash at "); n != 3 {
				t.Errorf("%d kill points in the transcript, want 3:\n%s", n, out.String())
			}
			for _, s := range tc.has {
				if !strings.Contains(out.String(), s) {
					t.Errorf("transcript missing %q:\n%s", s, out.String())
				}
			}
			for _, s := range tc.lacks {
				if strings.Contains(out.String(), s) {
					t.Errorf("transcript has %q:\n%s", s, out.String())
				}
			}
		})
	}
}

// TestLockstep: replicas that resume cleanly stay in lockstep to the
// horizon; replicas built from another seed fail to restore, and the
// failure is a restore failure, not divergence.
func TestLockstep(t *testing.T) {
	p := protocol(nil)
	var out bytes.Buffer
	res := p.Run(&out)
	p.Lockstep(&out, &res)
	if res.Code() != ExitOK || !strings.Contains(out.String(), "two replicas resumed at 50 ms, stepped 25 quanta to the horizon: no divergence") {
		t.Fatalf("clean lockstep: code %d\n%s", res.Code(), out.String())
	}

	p.Build = func() *psbox.System { return Scenario(8, testHorizon) }
	out.Reset()
	p.Lockstep(&out, &res)
	if !res.RestoreFailed || res.Diverged || !strings.Contains(out.String(), "FAIL: lockstep replica 0 restore: ") {
		t.Errorf("foreign replicas: %+v\n%s", res, out.String())
	}
}

// TestResultCode pins the exit-code fold and its precedence.
func TestResultCode(t *testing.T) {
	for _, tc := range []struct {
		r       Result
		code    int
		verdict string
	}{
		{Result{}, ExitOK, "ok"},
		{Result{Diverged: true}, ExitDivergence, "FAIL"},
		{Result{RestoreFailed: true}, ExitRestore, "FAIL"},
		{Result{RestoreFailed: true, Diverged: true}, ExitRestore, "FAIL"},
	} {
		if got := tc.r.Code(); got != tc.code {
			t.Errorf("%+v.Code() = %d, want %d", tc.r, got, tc.code)
		}
		if got := tc.r.String(); got != tc.verdict {
			t.Errorf("%+v.String() = %q, want %q", tc.r, got, tc.verdict)
		}
	}
}

// TestArmInstants: the armed instants are exactly k*every <= until, each
// on the trace, and without a resume the tape keeps the newest save.
func TestArmInstants(t *testing.T) {
	sys := Scenario(7, 50*sim.Millisecond)
	tape := Arm(sys, 7*sim.Millisecond, 30*sim.Millisecond, nil)
	sys.Run(50 * sim.Millisecond)
	var got []int64
	for _, ev := range sys.Trace.Events() {
		if ev.Cat == obs.CatCkpt {
			got = append(got, ev.Arg)
		}
	}
	want := []int64{7e6, 14e6, 21e6, 28e6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("checkpoint instants %v, want %v", got, want)
	}
	if tape.Latest == nil || tape.Latest.At != sim.Time(28*sim.Millisecond) || tape.Restored {
		t.Errorf("tape %+v, want newest save at 28ms and no restore", tape)
	}
}

// TestArmResume: a resumed run verifies at the resume instant, saves
// nothing up to it, and saves after it exactly what the uninterrupted run
// saves.
func TestArmResume(t *testing.T) {
	const every, until = 10 * sim.Millisecond, 50 * sim.Millisecond
	golden := Scenario(7, until)
	gTape := Arm(golden, every, until, nil)
	golden.Run(20 * sim.Millisecond)
	ckpt := gTape.Latest
	golden.Run(30 * sim.Millisecond)

	sys := Scenario(7, until)
	tape := Arm(sys, every, until, ckpt)
	sys.Run(20 * sim.Millisecond)
	if !tape.Restored || tape.Err != nil || tape.Latest != nil {
		t.Fatalf("at the resume instant: %+v, want verified and nothing saved", tape)
	}
	sys.Run(30 * sim.Millisecond)
	if tape.Latest == nil || tape.Latest.At != gTape.Latest.At || !bytes.Equal(tape.Latest.Bytes, gTape.Latest.Bytes) {
		t.Errorf("resumed run's newest checkpoint differs from the golden run's at %v", gTape.Latest.At)
	}

	// A resume instant off the cadence is never reached.
	off := Scenario(7, until)
	offTape := Arm(off, every, until, &Checkpoint{At: sim.Time(15 * sim.Millisecond), Bytes: ckpt.Bytes})
	off.Run(until)
	if offTape.Restored || offTape.Err != nil {
		t.Errorf("off-cadence resume: %+v, want Restored false", offTape)
	}
}

// TestArmRejectsNonPositiveCadence: a zero cadence would arm t=0 forever.
func TestArmRejectsNonPositiveCadence(t *testing.T) {
	for _, every := range []sim.Duration{0, -sim.Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Arm(every=%v) did not panic", every)
				}
			}()
			Arm(psbox.NewMobile(1), every, sim.Millisecond, nil)
		}()
	}
}
