package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs the command with args on a fresh flag set.
func runArgs(args ...string) error {
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"experiments"}, args...)
	return run()
}

// TestStartsBelowOneRejected pins the usage check on -starts: the
// harness would run best of 2 for any value below 1, so accepting one
// would report a protocol that never ran.
func TestStartsBelowOneRejected(t *testing.T) {
	savedArgs := os.Args
	t.Cleanup(func() { os.Args = savedArgs })
	for _, starts := range []string{"0", "-5"} {
		if err := runArgs("-table", "TL", "-scale", "test", "-starts", starts); err == nil {
			t.Errorf("-starts %s: run succeeded, want a usage error", starts)
		}
	}
}

// TestTable1TitleFollowsStarts: both places that render the compaction
// summary (all tables, and the Observations) name the start count the
// run used.
func TestTable1TitleFollowsStarts(t *testing.T) {
	savedArgs := os.Args
	t.Cleanup(func() { os.Args = savedArgs })
	for _, mode := range [][]string{{"-table", "all"}, {"-observations"}} {
		out := filepath.Join(t.TempDir(), "out.txt")
		if err := runArgs(append(mode, "-scale", "test", "-starts", "3", "-out", out)...); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		text, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), "Table 1. Bisection width improvement made by compaction (best of 3 starts).") {
			t.Errorf("%v -starts 3: Table 1 title does not say best of 3 starts", mode)
		}
	}
}
