package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsFlagCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"meter faults without the sim meter", []string{"-meter-faults"}, "-meter-faults requires -meter sim"},
		{"expect-shed without adversaries", []string{"-expect-shed"}, "-expect-shed requires -adversaries"},
		{"obs-check without a fleet", []string{"-obs-check"}, "-obs-check requires -cluster"},
		{"sim meter against an external daemon", []string{"-meter", "sim", "-addr", "127.0.0.1:1"}, "-meter sim runs only against the selfhosted daemon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestRunSelfhost drives a small selfhosted run to a passing -check and
// pins that loadgen leaves stdout empty: its output is a correctness
// summary on stderr, never timing numbers.
func TestRunSelfhost(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-tenants", "2", "-iters", "20", "-apps", "radar", "-platform", "Tablet", "-check", "1.05"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "check passed") {
		t.Errorf("no passing check in the summary:\n%s", stderr.String())
	}
}
