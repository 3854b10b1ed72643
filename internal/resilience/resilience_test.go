package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestClassString(t *testing.T) {
	for _, tc := range []struct {
		c    Class
		want string
	}{
		{ClassFatal, "fatal"},
		{ClassRetryable, "retryable"},
		{ClassDegraded, "degraded"},
		{Class(7), "class(7)"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(tc.c), got, tc.want)
		}
	}
}

func TestWrapAndClassOf(t *testing.T) {
	if Wrap(ClassRetryable, "fit", nil) != nil {
		t.Fatal("Wrap(nil) != nil")
	}
	base := errors.New("disk sneezed")
	wrapped := Wrap(ClassRetryable, "ingest", base)
	if ClassOf(wrapped) != ClassRetryable {
		t.Fatalf("ClassOf(wrapped) = %v", ClassOf(wrapped))
	}
	if !errors.Is(wrapped, base) {
		t.Fatal("wrapped error lost its cause")
	}
	// Re-wrapping must not override an existing class.
	rewrapped := Wrap(ClassFatal, "fit", wrapped)
	if ClassOf(rewrapped) != ClassRetryable {
		t.Fatalf("re-wrap changed class to %v", ClassOf(rewrapped))
	}
	// fmt-wrapped typed errors still answer through errors.As.
	nested := fmt.Errorf("outer: %w", Errorf(ClassDegraded, "fit:task:2", "singular matrix"))
	if !IsDegraded(nested) {
		t.Fatal("IsDegraded lost through fmt wrapping")
	}
	if ClassOf(errors.New("plain")) != ClassFatal {
		t.Fatal("unclassified error is not fatal by default")
	}
	if IsDegraded(nil) {
		t.Fatal("nil error classified")
	}
}

func TestErrorMessageNamesStageAndClass(t *testing.T) {
	err := Errorf(ClassDegraded, "fit:task:7", "fit refused to converge")
	msg := err.Error()
	for _, want := range []string{"fit:task:7", "degraded", "fit refused to converge"} {
		if !contains(msg, want) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCauseOrErr(t *testing.T) {
	if err := CauseOrErr(context.Background()); err != nil {
		t.Fatalf("live context has cause %v", err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(context.DeadlineExceeded)
	if err := CauseOrErr(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CauseOrErr = %v, want DeadlineExceeded cause", err)
	}
	plain, stop := context.WithCancel(context.Background())
	stop()
	if err := CauseOrErr(plain); !errors.Is(err, context.Canceled) {
		t.Fatalf("CauseOrErr = %v, want Canceled", err)
	}
}
