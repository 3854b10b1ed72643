package resilience

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"extradeep/internal/propcheck"
)

func TestNilInjectorObservesContext(t *testing.T) {
	var in *Injector
	if err := in.At(context.Background(), "fit"); err != nil {
		t.Fatalf("nil injector on live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := in.At(ctx, "fit"); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil injector on dead context = %v, want Canceled", err)
	}
}

func TestInjectorFiresOnScheduledHit(t *testing.T) {
	in := NewInjector(NewFakeClock(),
		Fault{Point: "fit", Hit: 1, Kind: KindError, Class: ClassDegraded})
	if err := in.At(context.Background(), "fit"); err != nil {
		t.Fatalf("hit 0 fired early: %v", err)
	}
	err := in.At(context.Background(), "fit")
	if !IsDegraded(err) {
		t.Fatalf("hit 1 = %v, want degraded injected error", err)
	}
	if err := in.At(context.Background(), "fit"); err != nil {
		t.Fatalf("hit 2 fired again: %v", err)
	}
	if got := in.Fired(); !reflect.DeepEqual(got, []string{"fit@1=degraded"}) {
		t.Fatalf("Fired = %v", got)
	}
}

func TestInjectorPanicKind(t *testing.T) {
	in := NewInjector(NewFakeClock(), Fault{Point: "fit:task:2", Kind: KindPanic})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(r.(string), "fit:task:2") {
			t.Fatalf("panic %q does not name the point", r)
		}
	}()
	_ = in.At(context.Background(), "fit:task:2")
}

func TestInjectorStallRespectsDeadline(t *testing.T) {
	clock := NewFakeClock()
	in := NewInjector(clock, Fault{Point: "fit", Kind: KindStall, Stall: time.Minute})
	ctx, cancel := clock.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := in.At(ctx, "fit")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall past deadline = %v, want DeadlineExceeded", err)
	}
	if clock.Now() != time.Minute {
		t.Fatalf("virtual time = %v, want the full stall", clock.Now())
	}
}

func TestInjectorCancelKind(t *testing.T) {
	in := NewInjector(NewFakeClock(), Fault{Point: "aggregate", Kind: KindCancel})
	ctx, cancel := context.WithCancelCause(context.Background())
	in.Arm(cancel)
	err := in.At(ctx, "aggregate")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault = %v, want Canceled", err)
	}
	if ctx.Err() == nil {
		t.Fatal("run context survived a cancel fault")
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	const s = "fit:task:3@0=panic;fit@0=stall:500ms;report@2=degraded;aggregate@0=cancel;epoch@1=error"
	sched, err := ParseSchedule(s)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if got := FormatSchedule(sched); got != s {
		t.Fatalf("round trip:\n got %s\nwant %s", got, s)
	}
}

func TestParseScheduleRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"fit",             // no @hit=kind
		"fit@x=error",     // non-numeric hit
		"fit@-1=error",    // negative hit
		"@0=error",        // empty point
		"fit@0=maybe",     // unknown kind
		"fit@0=retryable", // no injected kind is retryable: stages run once
		"fit@0=stall:",    // empty duration
		"fit@0=stall:-1s",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded", bad)
		}
	}
	// Empty entries are tolerated (trailing semicolons).
	if sched, err := ParseSchedule(" ; ;"); err != nil || len(sched) != 0 {
		t.Fatalf("blank schedule: %v, %v", sched, err)
	}
}

func TestScheduleFromSeedDeterministic(t *testing.T) {
	points := []string{"ingest", "aggregate", "epoch", "fit", "analyze", "report"}
	a := ScheduleFromSeed(42, points, 4)
	b := ScheduleFromSeed(42, points, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 || len(a) > 4 {
		t.Fatalf("schedule size %d outside (0, 4]", len(a))
	}
	if ScheduleFromSeed(42, nil, 4) != nil || ScheduleFromSeed(42, points, 0) != nil {
		t.Fatal("degenerate inputs produced a schedule")
	}
}

// TestPropScheduleSyntaxRoundTrip: every generated schedule survives
// Format → Parse → Format byte-identically, so EDFAULT_SCHEDULE strings
// printed by failure reports are always valid replays.
func TestPropScheduleSyntaxRoundTrip(t *testing.T) {
	points := []string{"ingest", "aggregate", "epoch", "fit", "analyze", "report", "fit:task:0", "fit:task:7"}
	gen := propcheck.Gen[[]Fault]{
		Generate: func(r *propcheck.Rand) []Fault {
			n := r.IntRange(0, 6)
			out := make([]Fault, n)
			for i := range out {
				out[i] = Fault{
					Point: points[r.Intn(len(points))],
					Hit:   r.IntRange(0, 3),
				}
				switch r.Intn(4) {
				case 0:
					out[i].Kind = KindError
					out[i].Class = []Class{ClassFatal, ClassDegraded}[r.Intn(2)]
				case 1:
					out[i].Kind = KindPanic
				case 2:
					out[i].Kind = KindStall
					out[i].Stall = time.Duration(r.IntRange(1, 5000)) * time.Millisecond
				case 3:
					out[i].Kind = KindCancel
				}
			}
			return out
		},
		Describe: func(s []Fault) string { return FormatSchedule(s) },
	}
	propcheck.Check(t, gen, func(sched []Fault) error {
		text := FormatSchedule(sched)
		parsed, err := ParseSchedule(text)
		if err != nil {
			return err
		}
		if got := FormatSchedule(parsed); got != text {
			return errors.New("schedule did not round-trip: " + got)
		}
		return nil
	})
}

// TestPropInjectorReplayIdentical: driving two injectors built from the
// same schedule through the same At sequence yields identical error
// sequences and identical Fired sets — the determinism contract that
// makes a schedule a replayable chaos recipe.
func TestPropInjectorReplayIdentical(t *testing.T) {
	points := []string{"ingest", "aggregate", "fit", "fit:task:0", "fit:task:1", "report"}
	type tc struct {
		Seed  int64
		Calls []string
	}
	gen := propcheck.Gen[tc]{
		Generate: func(r *propcheck.Rand) tc {
			n := r.IntRange(1, 20)
			calls := make([]string, n)
			for i := range calls {
				calls[i] = points[r.Intn(len(points))]
			}
			return tc{Seed: r.Int64Range(0, 1<<40), Calls: calls}
		},
	}
	propcheck.Check(t, gen, func(c tc) error {
		// Panics and stalls would need recover/clock plumbing in the
		// driver; restrict the replay property to error/cancel faults.
		var sched []Fault
		for _, f := range ScheduleFromSeed(c.Seed, points, 4) {
			if f.Kind == KindError || f.Kind == KindCancel {
				sched = append(sched, f)
			}
		}
		run := func() ([]string, []string) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			in := NewInjector(NewFakeClock(), sched...)
			in.Arm(cancel)
			var errs []string
			for _, p := range c.Calls {
				if err := in.At(ctx, p); err != nil {
					errs = append(errs, err.Error())
				}
			}
			return errs, in.Fired()
		}
		e1, f1 := run()
		e2, f2 := run()
		if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(f1, f2) {
			return errors.New("replay diverged for schedule " + FormatSchedule(sched))
		}
		return nil
	})
}
