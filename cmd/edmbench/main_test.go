package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestExperimentsGolden pins every experiment's output at a small scale:
// all seven protocol models appear in the fig8a, fig8b and ablations
// sections, so a change to any simulator's numbers moves these bytes. A
// change that is meant to move them regenerates the file with -update, in
// a commit of its own.
func TestExperimentsGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-experiment", "all", "-nodes", "16", "-ops", "500", "-fig7ops", "100"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("edmbench %v: %v (%s)", args, err, errb.String())
	}
	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s (rerun with -update if the change is intended):\n%s", path, out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	var ue cli.UsageError
	if err := run([]string{"-experiment", "fig9"}, &out, &errb); !errors.As(err, &ue) {
		t.Errorf("edmbench -experiment fig9: err %v, want a usage error", err)
	}
	// The bench gate is scripts/bench_ab.sh -c, so edmbench has no
	// -baseline or -threshold.
	for _, args := range [][]string{
		{"-nope"},
		{"-snapshot", "x.json", "-baseline", "BENCH_0.json"},
		{"-snapshot", "x.json", "-threshold", "15"},
	} {
		if err := run(args, &out, &errb); !errors.Is(err, cli.ErrFlagParse) {
			t.Errorf("edmbench %v: err %v, want ErrFlagParse", args, err)
		}
	}
}
