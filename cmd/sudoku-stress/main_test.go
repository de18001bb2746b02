package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSharded(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-engine", "sharded", "-goroutines", "4", "-duration", "100ms",
		"-cachemb", "1", "-scrub", "5ms", "-storm", "20",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"engine=sharded", "p50=", "p99=", "scrub-passes="} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunGlobal(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-engine", "global", "-goroutines", "2", "-duration", "50ms",
		"-cachemb", "1", "-scrub", "5ms", "-quiet",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "engine=global shards=1") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunCompare(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-engine", "compare", "-goroutines", "2", "-duration", "50ms",
		"-cachemb", "1", "-storm", "0", "-quiet",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sharded/global throughput:") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestRunChaos is the chaos smoke: a short RAS soak that must come
// back with zero SDC and zero failed clean-line recoveries (runChaos
// returns an error otherwise). CI runs the same mode for longer under
// -race via the chaos-smoke job.
func TestRunChaos(t *testing.T) {
	dur := "400ms"
	if testing.Short() {
		dur = "150ms"
	}
	var out bytes.Buffer
	err := run([]string{
		"-chaos", "-goroutines", "4", "-duration", dur,
		"-cachemb", "1", "-scrub", "5ms", "-quiet",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"chaos: PASS", "health: retired=", "storm="} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunRestoreCycle is the restore smoke: checkpoint under a
// campaign, tear the current snapshot, restore from the previous
// generation, and survive a second shadow-verified load phase.
func TestRunRestoreCycle(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-restore-cycle", "-goroutines", "4", "-duration", "400ms",
		"-cachemb", "1", "-scrub", "5ms", "-quiet",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "restore-cycle: PASS") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	// The swarm cases fail flag validation before dialing; the address
	// is never contacted.
	const srv = "127.0.0.1:1"
	cases := []struct {
		args []string
		want string // substring of the error; "" accepts any
	}{
		{[]string{"-engine", "nope"}, ""},
		{[]string{"-goroutines", "0"}, ""},
		{[]string{"-duration", "0s"}, ""},
		{[]string{"-readfrac", "1.5"}, ""},
		{[]string{"-storm", "-1"}, ""},
		{[]string{"-scrub", "0s"}, ""},
		{[]string{"-shards", "5"}, ""},
		{[]string{"-server", srv, "-codec", "xml"}, "codec"},
		{[]string{"-server", srv, "-lines", "0"}, "lines"},
		{[]string{"-server", srv, "-batchfrac", "2"}, "batchfrac"},
		{[]string{"-netchaos", "gate"}, "requires -server"},
		{[]string{"-server", srv, "-netchaos", "gate", "-tracegate"}, "tracegate"},
		{[]string{"-server", srv, "-netchaos", "nope"}, `"nope"`},
	}
	for _, tc := range cases {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("args %v accepted", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

// The percentile regression tests (q = 1.0 sentinel bug, empty
// histogram, single-observation rank clamping) moved to
// internal/telemetry with the histogram itself — see
// internal/telemetry/histogram_test.go TestQuantile*.
