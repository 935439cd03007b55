package main

import (
	"flag"
	"io"
	"os"
	"testing"
)

// TestStartsBelowOneRejected pins the usage check on -starts: BestOf
// would run one start for any value below 1, so accepting one would
// report a run that never happened ("best of 0 starts").
func TestStartsBelowOneRejected(t *testing.T) {
	savedArgs := os.Args
	t.Cleanup(func() { os.Args = savedArgs })
	for _, starts := range []string{"0", "-3"} {
		flag.CommandLine = flag.NewFlagSet("bisect", flag.ContinueOnError)
		flag.CommandLine.SetOutput(io.Discard)
		os.Args = []string{"bisect", "-in", "../../testdata/breg200.el", "-starts", starts}
		if _, err := run(); err == nil {
			t.Errorf("-starts %s: run succeeded, want a usage error", starts)
		}
	}
}
