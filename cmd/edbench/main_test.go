package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownExperimentIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nope"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("exit %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr lacks diagnosis:\n%s", stderr.String())
	}
}
