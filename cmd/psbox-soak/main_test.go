//psbox:allow-noconcurrency exit-code tests drive the watchdog path, which is concurrent by design
//psbox:allow-nowallclock the timeout table entry needs a real wall-clock deadline to trip the watchdog

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psbox/internal/soak"
)

// TestTranscriptMatchesGolden regenerates both seeded transcripts
// in-process and byte-compares them with the goldens under testdata/ at
// the module root. Each transcript opens with the uninterrupted run's
// report (fault log, recovery counters, box observations, battery energy,
// trace hashes), so the fault scenario itself is held to a golden, not
// only its crash-and-resume replays.
func TestTranscriptMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		ms   int64
	}{{7, 1000}, {42, 2000}} {
		golden := fmt.Sprintf("psbox-soak-seed%d-ms%d.golden", c.seed, c.ms)
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
		if err != nil {
			t.Fatalf("golden missing (regenerate with `go run ./cmd/psbox-soak -seed %d -ms %d > testdata/%s`): %v",
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

// TestExitCodes tables the exit statuses psbox-soak adds around the
// protocol: a clean soak, the hung-run watchdog, and usage errors. The
// restore-failure and divergence verdicts, and their precedence, are
// tested where they are decided, in internal/soak.
func TestExitCodes(t *testing.T) {
	tests := []struct {
		name       string
		args       []string
		want       int
		wantStdout string // "" skips the check
		wantStderr string
	}{
		{
			name: "ok", args: []string{"-seed", "7", "-ms", "100"},
			want: soak.ExitOK, wantStdout: "verdict: ok",
		},
		{
			name: "timeout", args: []string{"-seed", "7", "-ms", "60000", "-timeout", "50ms"},
			want: exitTimeout, wantStderr: "no verdict after 50ms; run presumed hung",
		},
		{
			name: "usage: bad flag", args: []string{"-no-such-flag"},
			want: exitUsage,
		},
		{
			name: "usage: non-positive horizon", args: []string{"-ms", "0"},
			want: exitUsage, wantStderr: "-ms must be positive",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s",
					got, tc.want, stdout.String(), stderr.String())
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
		})
	}
}
