package main

import (
	"strings"
	"testing"
)

// allAnalyzerNames is the full default-suite name list the CLI must
// surface, in lexical order, whenever a spec names an unknown analyzer.
var allAnalyzerNames = []string{
	"allocloop", "boxiface", "ctxflow", "deferhot", "divguard", "errcheck",
	"floateq", "libpanic", "logdomain", "maporder", "naninout", "prealloc",
	"sendguard", "wallclock",
}

// TestUnknownAnalyzerExitsTwo pins the CLI contract for a bad -analyzers
// spec: exit status 2 (a usage error, distinct from "findings were
// printed" = 1) and a stderr message that names the offender and lists
// every valid analyzer, so the fix is copy-pasteable from the error.
func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-analyzers", "allocloop,nosuch"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown analyzer "nosuch"`) {
		t.Errorf("stderr does not name the unknown analyzer:\n%s", msg)
	}
	for _, name := range allAnalyzerNames {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list valid analyzer %q:\n%s", name, msg)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", stdout.String())
	}
}

// TestListNamesEveryAnalyzer keeps -list in sync with the default suite,
// including the perf family added in v4.
func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	for _, name := range allAnalyzerNames {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list does not mention %q:\n%s", name, stdout.String())
		}
	}
}

// TestRunWithoutGoCommandExitsTwo: with no go command on PATH the
// standard library's export data cannot be located, which is a load
// error (exit status 2) naming the lookup, not a clean or dirty result.
func TestRunWithoutGoCommandExitsTwo(t *testing.T) {
	t.Setenv("PATH", "")
	var stdout, stderr strings.Builder
	code := run([]string{"-cachedir", "", "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "export-data lookup") {
		t.Errorf("stderr does not name the export-data lookup:\n%s", stderr.String())
	}
}
