package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	psbox "psbox"
	"psbox/internal/obs"
	"psbox/internal/sim"
)

// goldenPath resolves a file under the module-root testdata directory.
func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", name)
}

// render runs the canonical seed-7 traced scenario and emits one view.
func render(t *testing.T, format string, metrics bool) []byte {
	t.Helper()
	sys := tracedRun(7, 500*psbox.Millisecond)
	var buf bytes.Buffer
	if err := emitTraced(&buf, sys, format, metrics, "", 0, 0); err != nil {
		t.Fatalf("emitTraced: %v", err)
	}
	return buf.Bytes()
}

// TestTracedGoldens pins the seed-7 Perfetto trace and metrics report to
// the committed goldens. CI runs this under -race, so a pass also proves
// byte-identical output on the instrumented build. Regenerate with
// UPDATE_GOLDEN=1 after an intentional change.
func TestTracedGoldens(t *testing.T) {
	cases := []struct {
		golden  string
		format  string
		metrics bool
	}{
		{"psbox-trace-seed7.perfetto.golden", "perfetto", false},
		{"psbox-trace-seed7.metrics.golden", "", true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			got := render(t, tc.format, tc.metrics)
			path := goldenPath(t, tc.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output drifted from %s (%d bytes got, %d want); "+
					"rerun with UPDATE_GOLDEN=1 if the change is intentional",
					path, len(got), len(want))
			}
		})
	}
}

// TestRingSummaryExactCounts: the stderr summary must surface the ring's
// exact accounting, including a non-zero dropped count once the ring
// overflows — truncation is visible, never silent.
func TestRingSummaryExactCounts(t *testing.T) {
	sys := tracedRun(7, 500*psbox.Millisecond)
	var buf bytes.Buffer
	ringSummary(&buf, sys.Trace)
	want := fmt.Sprintf("psbox-trace: %d events emitted, %d retained, %d dropped (ring overflow)\n",
		sys.Trace.Total(), sys.Trace.Len(), sys.Trace.Dropped())
	if buf.String() != want {
		t.Fatalf("summary = %q, want %q", buf.String(), want)
	}
	if sys.Trace.Total() == 0 {
		t.Fatal("traced run emitted no events")
	}

	// A deliberately tiny ring drops: emitted − retained must be reported
	// exactly.
	b := obs.NewBus(sim.NewEngine(), 4)
	b.Enable()
	for i := 0; i < 10; i++ {
		b.Instant(obs.CatSim, "tick", 0, int64(i), "", "")
	}
	buf.Reset()
	ringSummary(&buf, b)
	if got, want := buf.String(), "psbox-trace: 10 events emitted, 4 retained, 6 dropped (ring overflow)\n"; got != want {
		t.Fatalf("overflow summary = %q, want %q", got, want)
	}
}

// TestTracedRunIsRepeatable re-renders the same seed back-to-back and
// demands byte equality, the in-process form of the CLI's determinism
// promise.
func TestTracedRunIsRepeatable(t *testing.T) {
	for _, format := range []string{"perfetto", "csv", "ascii"} {
		a := render(t, format, true)
		b := render(t, format, true)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s output differs across identical runs", format)
		}
	}
}

// TestBlameRequestRefused: a blame request the traced run cannot answer
// is a one-line error naming the rail, or the window (and the horizon it
// falls outside), and nothing is written; a window ending exactly at the
// horizon is answered.
func TestBlameRequestRefused(t *testing.T) {
	sys := tracedRun(7, 500*psbox.Millisecond)
	cases := []struct {
		name          string
		rail          string
		fromMS, lenMS int
		wantErr       string // "" means the request is answered
	}{
		{"unknown rail", "nosuch", 100, 2, `no rail "nosuch" to blame`},
		{"window past the horizon", "cpu", 600, 2, "blame window [600 ms, 602 ms) lies outside the run's 500 ms horizon"},
		{"window straddling the horizon", "cpu", 499, 2, "blame window [499 ms, 501 ms) lies outside the run's 500 ms horizon"},
		{"window before the run", "cpu", -5, 2, "blame window [-5 ms, -3 ms) lies outside the run's 500 ms horizon"},
		{"empty window", "cpu", 100, 0, "blame window [100 ms, 100 ms) is empty; -blame-ms must be positive"},
		{"reversed window", "cpu", 100, -3, "blame window [100 ms, 97 ms) is empty; -blame-ms must be positive"},
		{"window ending at the horizon", "cpu", 498, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := emitTraced(&buf, sys, "perfetto", false, tc.rail,
				psbox.Duration(tc.fromMS)*psbox.Millisecond, psbox.Duration(tc.lenMS)*psbox.Millisecond)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("emitTraced: %v", err)
				}
				if !strings.Contains(buf.String(), "# blame timeline rail=cpu samples=200\n") {
					t.Fatal("no 200-sample blame timeline in the output")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("error = %v, want one line containing %q", err, tc.wantErr)
			}
			if buf.Len() != 0 {
				t.Errorf("refused request wrote %d bytes", buf.Len())
			}
		})
	}
}
