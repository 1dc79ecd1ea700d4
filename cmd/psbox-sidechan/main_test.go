package main

import (
	"strings"
	"testing"
)

// TestUsageErrors: a flag the command does not know, or a site or trial
// count below one, is a one-line error on stderr and exit 2, with nothing
// on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-sites", "0"},
		{"-sites", "-1"},
		{"-trials", "0"},
		{"-trials", "-2"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want usage exit 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote %q to stdout", args, stdout.String())
		}
		if args[0] != "-no-such-flag" && strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("run(%v) stderr = %q, want one line", args, stderr.String())
		}
	}
}

// TestSmallAttack: the smallest attack runs under both observation
// regimes and prints one success line for each.
func TestSmallAttack(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-sites", "2", "-trials", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "unrestricted: success ") || !strings.HasPrefix(lines[1], "psbox:        success ") {
		t.Fatalf("output = %q, want an unrestricted and a psbox success line", stdout.String())
	}
}
