// Package resilience is the pipeline's failure-handling layer: a typed
// error taxonomy (retryable / fatal / degraded), a Clock that makes stage
// deadlines and stalls deterministic under test, and a deterministic
// runtime fault injector whose schedules are replayable like EDCHECK_SEED
// recipes. Nothing here retries: every stage runs once, because the
// stages are deterministic work over in-memory data and a rerun would
// repeat the same failure. (Fit-task checkpoints live with the fit stage
// in internal/pipeline.)
//
// The package is stdlib-only and knows nothing about profiles or models:
// the pipeline hands it string-named injection points. It is part of the
// edlint-policed deterministic core: nothing here may read the wall
// clock or draw randomness outside the explicitly sanctioned sleep in
// WallClock.
//
// The taxonomy's invariant, enforced end to end by the propcheck fault
// suites: every run either completes, completes partially with all
// failures classified, or fails with a typed error — and resuming after
// an interruption at any point yields byte-identical final output.
package resilience

import (
	"context"
	"errors"
	"fmt"
)

// Class partitions failures by the correct reaction to them.
type Class int

const (
	// ClassFatal failures abort the run: malformed inputs, programming
	// errors, cancellation by the caller. This is the default class for
	// errors that carry no explicit classification.
	ClassFatal Class = iota
	// ClassRetryable failures may succeed if the caller reruns the
	// operation later, such as a stage that overran its deadline budget.
	// Nothing in-process retries them: the run fails once and the caller
	// decides.
	ClassRetryable
	// ClassDegraded failures are per-unit (one kernel's fit panicked or
	// refused to converge): the unit is quarantined and the run
	// continues, completing partially.
	ClassDegraded
)

// String names the class in error messages.
func (c Class) String() string {
	switch c {
	case ClassFatal:
		return "fatal"
	case ClassRetryable:
		return "retryable"
	case ClassDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Error is the typed pipeline failure: a class, the stage or injection
// point it occurred at, and the cause.
type Error struct {
	// Class selects the reaction: abort, rerun later, or quarantine.
	Class Class
	// Stage names the pipeline stage or injection point.
	Stage string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("resilience: %s: %s: %v", e.Stage, e.Class, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Errorf builds a typed error from a format string.
func Errorf(class Class, stage, format string, args ...any) *Error {
	return &Error{Class: class, Stage: stage, Err: fmt.Errorf(format, args...)}
}

// Wrap attaches a class and stage to an existing error. A nil err
// returns nil; an err that already carries a class keeps it.
func Wrap(class Class, stage string, err error) error {
	if err == nil {
		return nil
	}
	var typed *Error
	if errors.As(err, &typed) {
		return err
	}
	return &Error{Class: class, Stage: stage, Err: err}
}

// ClassOf classifies an arbitrary error. Typed errors answer for
// themselves; context cancellation and deadlines from the caller are
// fatal (the caller asked the run to stop); everything unclassified is
// fatal, because retrying an unknown failure repeats unknown work.
func ClassOf(err error) Class {
	var typed *Error
	if errors.As(err, &typed) {
		return typed.Class
	}
	return ClassFatal
}

// IsDegraded reports whether err carries the degraded class.
func IsDegraded(err error) bool { return err != nil && ClassOf(err) == ClassDegraded }

// CauseOrErr returns context.Cause(ctx) when the context is done —
// surfacing a deadline as context.DeadlineExceeded even when the
// implementation cancelled with a cause — and nil otherwise.
func CauseOrErr(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}
