package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psbox"
	"psbox/internal/sandbox"
	"psbox/internal/soak"
)

// TestReportDeterminism: the flood report is byte-identical across runs
// at the same seed (the -race CI job re-checks this under the detector).
func TestReportDeterminism(t *testing.T) {
	for _, seed := range []string{"7", "42"} {
		var a, b bytes.Buffer
		if code := run([]string{"-seed", seed, "-ms", "600"}, &a, &strings.Builder{}); code != 0 {
			t.Fatalf("seed %s: exit %d", seed, code)
		}
		if code := run([]string{"-seed", seed, "-ms", "600"}, &b, &strings.Builder{}); code != 0 {
			t.Fatalf("seed %s: exit %d", seed, code)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("seed %s: two runs differ:\n--- a ---\n%s\n--- b ---\n%s",
				seed, a.String(), b.String())
		}
	}
}

// TestEnforcementVerdicts drives the flood and checks the acceptance
// behaviors session by session: every admitted hog was throttled and then
// killed, every admitted crash-looper ended quarantined with its
// preserve_data counters carried, and every admitted leaker was killed on
// the backlog bound.
func TestEnforcementVerdicts(t *testing.T) {
	horizon := 1000 * psbox.Millisecond
	sys, _ := build(42, horizon)
	sys.Run(horizon)
	mgr := sys.Sandboxes()

	kinds := map[string]int{}
	for _, s := range mgr.Sessions() {
		kind := s.Name()[:strings.IndexByte(s.Name(), '-')]
		kinds[kind]++
		switch kind {
		case "hog":
			if s.Throttles() == 0 {
				t.Errorf("%s: never throttled", s.Name())
			}
			if s.Kills() == 0 {
				t.Errorf("%s: never killed", s.Name())
			}
		case "crashloop":
			if s.State() != sandbox.StateQuarantined {
				t.Errorf("%s: state %v, want quarantined", s.Name(), s.State())
			}
			if s.Preserved()["iters"] <= 0 {
				t.Errorf("%s: no preserved iters across restarts", s.Name())
			}
		case "leaker":
			if s.Kills() == 0 {
				t.Errorf("%s: never killed on the backlog bound", s.Name())
			}
		}
	}
	for _, kind := range []string{"steady", "pulse", "hog", "crashloop", "leaker"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s session admitted; enforcement checks vacuous", kind)
		}
	}
	st := mgr.Stats()
	if st.Rejected == 0 {
		t.Error("admission control never rejected an arrival")
	}
	if st.ReclaimedJ <= 0 {
		t.Errorf("no energy reclaimed from throttling: %+v", st)
	}
	if st.Retired == 0 {
		t.Error("no finite session retired")
	}
}

// TestTranscriptMatchesGolden regenerates both seeded -soak transcripts
// in-process and byte-compares them with the goldens under testdata/ at
// the module root. Each transcript opens with the uninterrupted run's
// report (arrival plan, per-session verdicts, enforcement tallies, fault
// log, trace hashes), so the manager's enforcement ladder is held to a
// golden, not only its crash-and-resume replays.
func TestTranscriptMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		ms   int64
	}{{7, 1000}, {42, 2000}} {
		golden := fmt.Sprintf("psbox-flood-seed%d-ms%d.golden", c.seed, c.ms)
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
		if err != nil {
			t.Fatalf("golden missing (regenerate with `go run ./cmd/psbox-flood -seed %d -ms %d -soak > testdata/%s`): %v",
				c.seed, c.ms, golden, err)
		}
		got, code := transcript(c.seed, c.ms)
		if code != soak.ExitOK {
			t.Errorf("seed=%d ms=%d: exit code %d, want %d", c.seed, c.ms, code, soak.ExitOK)
		}
		if got != string(want) {
			t.Errorf("seed=%d ms=%d: transcript diverged from %s:\n%s", c.seed, c.ms, golden,
				soak.DiffLines(string(want), got))
		}
	}
}

// TestSoakRestoreEquivalence is the restore-equivalence gate: kill the
// flood mid-churn at three points, restore from the last checkpoint, and
// demand every resumed report byte-match the golden. Run under -race in
// CI.
func TestSoakRestoreEquivalence(t *testing.T) {
	ms := int64(800)
	if testing.Short() {
		ms = 400
	}
	out, code := transcript(42, ms)
	if code != soak.ExitOK {
		t.Fatalf("soak exit %d:\n%s", code, out)
	}
	if n := strings.Count(out, "resumed report identical to golden"); n != 3 {
		t.Errorf("%d/3 resumed reports matched:\n%s", n, out)
	}
	if n := strings.Count(out, "restore verified"); n != 3 {
		t.Errorf("%d/3 restores verified:\n%s", n, out)
	}
}

// TestChurnFreesHeadroom: quarantines and retirements release budget, so
// a flood that starts overcommitted admits late arrivals.
func TestChurnFreesHeadroom(t *testing.T) {
	horizon := 1000 * psbox.Millisecond
	sys, plan := build(42, horizon)
	sys.Run(horizon)
	mgr := sys.Sandboxes()
	var late bool
	for _, a := range plan {
		if a.at == 0 {
			continue
		}
		for _, s := range mgr.Sessions() {
			if s.Name() == a.name {
				late = true
			}
		}
	}
	if !late {
		t.Error("no late arrival was ever admitted: churn freed no headroom")
	}
	if got := mgr.Headroom(); got <= 0 || got > capacityW {
		t.Errorf("headroom %v out of range (0, %v]", got, capacityW)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-ms", "0"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}
