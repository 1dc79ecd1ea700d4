//psbox:allow-noconcurrency exercises the concurrent supervisor through the CLI
//psbox:allow-nowallclock golden runs shrink the watchdog's host-side stall deadline for speed

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenAcrossWorkers runs the CI fleet-soak configuration at one
// worker and at four and byte-compares both merged reports against the
// committed golden: the report must not depend on parallelism,
// completion order, or which retry attempt succeeded. The _obs variants
// append every observability rendering (metrics rollup, folded stacks,
// top table, Prometheus exposition), extending the same contract to the
// whole fleet-observability surface — including the noretry run, where
// quarantined shards must drop out of the rollup identically at any
// worker count. Set UPDATE_GOLDEN=1 to regenerate.
func TestGoldenAcrossWorkers(t *testing.T) {
	base := []string{"-chaos", "-seed", "42", "-shards", "8", "-ms", "100",
		"-quanta", "20", "-ckpt-every", "5", "-stall", "500ms"}
	obs := []string{"-metrics", "-profile", "-top", "5", "-expo"}
	for _, tc := range []struct {
		golden  string
		retries string
		extra   []string
	}{
		{"fleet_chaos.golden", "2", nil},
		{"fleet_chaos_noretry.golden", "0", nil},
		{"fleet_obs.golden", "2", obs},
		{"fleet_obs_noretry.golden", "0", obs},
	} {
		path := filepath.Join("testdata", tc.golden)
		for _, workers := range []string{"1", "4"} {
			args := append(append([]string{}, base...), "-retries", tc.retries, "-workers", workers)
			args = append(args, tc.extra...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s workers=%s: exit %d, stderr: %s", tc.golden, workers, code, stderr.String())
			}
			if workers == "1" && os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s workers=%s: report deviates from golden\n--- got ---\n%s",
					tc.golden, workers, stdout.String())
			}
		}
	}
}

// TestProgressStderrDoesNotPerturbStdout: -progress writes wall-clock
// lines to stderr only; the deterministic report bytes must be identical
// with and without it.
func TestProgressStderrDoesNotPerturbStdout(t *testing.T) {
	base := []string{"-seed", "7", "-shards", "3", "-ms", "50", "-quanta", "10",
		"-ckpt-every", "2", "-retries", "1", "-metrics", "-expo"}
	var plain, progress, stderr bytes.Buffer
	if code := run(base, &plain, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(append(append([]string{}, base...), "-progress"), &progress, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(plain.Bytes(), progress.Bytes()) {
		t.Error("-progress changed stdout")
	}
	if !bytes.Contains(stderr.Bytes(), []byte("3/3 shards done")) {
		t.Errorf("progress reporter missing final line:\n%s", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-ms", "0"},
		{"-shards", "0"},
		{"-ms", "1", "-quanta", "2000000"},
		{"-chaos", "-shards", "0"},
		{"-chaos", "-quanta", "1"},
		{"-chaos", "-quanta", "-3"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want usage exit 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}
