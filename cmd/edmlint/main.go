// Command edmlint runs the repo's project-specific static-analysis suite
// (internal/lint) over package patterns and prints file:line:col diagnostics.
// It exits 0 when clean, 1 when there are findings, 2 on bad usage — so a CI
// step is just `go run ./cmd/edmlint ./...`.
//
// Usage:
//
//	edmlint ./...                 # the whole module
//	edmlint -only walltime ./...  # one analyzer
//	edmlint -list                 # describe the suite
//
// Diagnostics go to stdout; a per-analyzer timing summary goes to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/lint"
)

func main() {
	cli.Exit("edmlint", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: patterns in, diagnostics out.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("edmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run only these analyzers (comma-separated)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return cli.ErrFlagParse
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a := byName[name]
			if a == nil {
				return cli.Usagef("unknown analyzer %q (see -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := lint.FindModule(".")
	if err != nil {
		return err
	}
	dirs, err := lint.ExpandPatterns(mod, patterns)
	if err != nil {
		return err
	}
	pkgs, err := lint.LoadPackages(mod, dirs)
	if err != nil {
		return err
	}

	// Wrap each analyzer to accumulate wall time across packages. The
	// timing lives here, not in internal/lint: lint is itself a
	// deterministic package and must not touch the clock.
	elapsed := make(map[string]*time.Duration, len(analyzers))
	timed := make([]*lint.Analyzer, len(analyzers))
	for i, a := range analyzers {
		a := a
		d := new(time.Duration)
		elapsed[a.Name] = d
		timed[i] = &lint.Analyzer{Name: a.Name, Doc: a.Doc,
			Run: func(p *lint.Package, dir *lint.Directives) []lint.Finding {
				start := time.Now()
				defer func() { *d += time.Since(start) }()
				return a.Run(p, dir)
			}}
	}

	findings := 0
	for _, p := range pkgs {
		for _, f := range lint.Check(p, timed) {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
			findings++
		}
	}
	fmt.Fprintf(stderr, "edmlint: %s\n", timingLine(analyzers, elapsed))

	if findings > 0 {
		return fmt.Errorf("%d finding(s)", findings)
	}
	return nil
}

// timingLine renders the per-analyzer wall-time summary, slowest first.
func timingLine(analyzers []*lint.Analyzer, elapsed map[string]*time.Duration) string {
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.SliceStable(names, func(i, j int) bool {
		return *elapsed[names[i]] > *elapsed[names[j]]
	})
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %s", n, elapsed[n].Round(time.Microsecond))
	}
	return "analyzer timing: " + strings.Join(parts, ", ")
}

// relPath shortens filenames to be relative to the working directory when
// possible, matching how go vet prints positions.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
