package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Fatalf("-h: %v", err)
	}
}

func TestBadFlagIsFlagParse(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-no-such-flag"}, &out, &errb)
	if !errors.Is(err, cli.ErrFlagParse) {
		t.Fatalf("bad flag: got %v, want ErrFlagParse", err)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-only", "nosuch"}, &out, &errb)
	var ue cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("-only nosuch: got %v, want UsageError", err)
	}
}

func TestListDescribesSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, name := range []string{"walltime", "globalrand", "lockcheck", "hotpath",
		"pooledescape", "lockorder", "atomicmix"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestViolatingFixtureFails(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-only", "walltime", "../../internal/lint/testdata/walltime"}, &out, &errb)
	if err == nil {
		t.Fatalf("violating fixture: expected findings, got none\n%s", out.String())
	}
	if errors.Is(err, cli.ErrFlagParse) {
		t.Fatalf("violating fixture: got flag-parse error")
	}
	var ue cli.UsageError
	if errors.As(err, &ue) {
		t.Fatalf("violating fixture: got usage error %v, want findings (exit 1)", err)
	}
	if !strings.Contains(out.String(), "[walltime]") {
		t.Errorf("diagnostics missing [walltime] tag:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "bad.go:") {
		t.Errorf("diagnostics missing file:line position:\n%s", out.String())
	}
}

func TestCleanFixturePasses(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"../../internal/lint/testdata/clean"}, &out, &errb); err != nil {
		t.Fatalf("clean fixture: %v\n%s", err, out.String())
	}
}

// TestRepoClean is the acceptance gate: the suite must pass over the whole
// module at HEAD. The pattern walks from the module root (the test's working
// directory is cmd/edmlint).
func TestRepoClean(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"../../..."}, &out, &errb); err != nil {
		t.Fatalf("edmlint ./... not clean: %v\n%s", err, out.String())
	}
	if !strings.Contains(errb.String(), "analyzer timing:") {
		t.Errorf("stderr missing analyzer timing line:\n%s", errb.String())
	}
}

// injectedModule is a minimal module violating each of the three new rules
// exactly once: an escaping pooled record, descending shard locks, and a
// plain read of an atomically-updated field.
const injectedGoMod = "module tmpmod\n\ngo 1.24\n"

const injectedSource = `package payload

import (
	"sync"
	"sync/atomic"
)

// msg is pooled; values are callback-scoped.
//
//edmlint:owned callback
type msg struct {
	data []byte
}

type shard struct {
	mu sync.Mutex
	n  int
}

type keeper struct {
	last   *msg
	shards [4]shard
	hits   uint64
}

// retain escapes the pooled record into a field.
func (k *keeper) retain(m *msg) {
	k.last = m
}

// descend locks shards in descending order.
func (k *keeper) descend(i int) {
	k.shards[i].mu.Lock()
	k.shards[i-1].mu.Lock()
	k.shards[i-1].n++
	k.shards[i-1].mu.Unlock()
	k.shards[i].mu.Unlock()
}

// bump updates hits atomically; peek reads it plainly.
func (k *keeper) bump() {
	atomic.AddUint64(&k.hits, 1)
}

func (k *keeper) peek() uint64 {
	return k.hits
}
`

// TestInjectedViolationsFailTheGate proves each new rule actually gates: a
// module violating pooledescape, lockorder, and atomicmix fails the run
// with all three analyzers reporting.
func TestInjectedViolationsFailTheGate(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(injectedGoMod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "payload.go"), []byte(injectedSource), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	var out, errb bytes.Buffer
	err := run([]string{"./..."}, &out, &errb)
	if err == nil {
		t.Fatalf("injected violations: expected findings, got none\n%s", out.String())
	}
	for _, tag := range []string{"[pooledescape]", "[lockorder]", "[atomicmix]"} {
		if !strings.Contains(out.String(), tag) {
			t.Errorf("diagnostics missing %s:\n%s", tag, out.String())
		}
	}
}
